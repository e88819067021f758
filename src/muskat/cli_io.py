"""Command-line entry points, JSON configuration, and on-disk formats.

Commands: run <config.json>, dispersion <beta+> <beta-> <k_max>,
check <config.json>, convergence <config.json>.  Exit codes: 0 success,
1 usage/config error, 2 physical termination (gap or degenerate map),
3 solver failure, 4 failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, evolution
from .diffeo import (
    LOWER,
    UPPER,
    PermeabilityProfile,
    StripGrid,
    harmonic_extension,
    metric_terms,
    piola_divergence,
    vertical_derivative_exact,
)
from .spectral_core import PeriodicField1D, deriv, sobolev_norm

__all__ = [
    "ConfigError",
    "load_config",
    "write_timeseries_csv",
    "TIMESERIES_HEADER",
    "Snapshot",
    "write_snapshot",
    "read_snapshot",
    "RunManifest",
    "cmd_run",
    "cmd_dispersion",
    "cmd_check",
    "cmd_convergence",
    "main",
]

TIMESERIES_HEADER = ("t,l2_h,h2_h,h2p5_h,scriptE,scriptD,rt_margin,"
                     "l2_law_residual,coupling_ratio")

SNAPSHOT_MAGIC = b"MSKT"
SNAPSHOT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICAL = 2
EXIT_SOLVER = 3
EXIT_CHECK_FAILED = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "n1", "n2_plus", "n2_minus", "beta_plus", "beta_minus", "dt_safety",
    "t_end", "gap_tol", "j_min", "solver", "report_every", "output_dir",
    "h0_modes", "f_modes",
}


def _field_from_modes(n1: int, modes, what: str) -> PeriodicField1D:
    if modes is None:
        return PeriodicField1D.zeros(n1)
    try:
        triples = [(int(k), float(c), float(s)) for k, c, s in modes]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a list of [k, cos_amp, sin_amp] triples") from exc
    return PeriodicField1D.from_modes(n1, triples)


def load_config(path: str | Path):
    """Parse a run configuration; returns (SimConfig, h0, f).

    Unknown keys are rejected.  output_dir is resolved relative to the
    config file's directory.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    h0_modes = raw.pop("h0_modes", None)
    f_modes = raw.pop("f_modes", None)
    output_dir = raw.pop("output_dir", None)
    if output_dir is not None:
        output_dir = str((path.parent / output_dir).resolve())
    try:
        config = evolution.SimConfig(output_dir=output_dir, **raw).validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    try:
        h0 = _field_from_modes(config.n1, h0_modes, "h0_modes")
        f = _field_from_modes(config.n1, f_modes, "f_modes")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, h0, f


# ---------------------------------------------------------------------------
# timeseries CSV
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_timeseries_csv(path: str | Path, reports) -> None:
    """Full-precision CSV, LF line endings, one row per report."""
    lines = [TIMESERIES_HEADER]
    for r in reports:
        lines.append(",".join(_fmt(v) for v in (
            r.t, r.l2_h, r.h2_h, r.h2p5_h, r.script_E, r.script_D,
            r.rt_margin, r.l2_law_residual, r.coupling_ratio,
        )))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# snapshot binary format
# ---------------------------------------------------------------------------


@dataclass
class Snapshot:
    """One full field snapshot; arrays are nodal (n1, n2) per strip."""

    t: float
    h: np.ndarray
    f: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    w1_plus: np.ndarray
    w2_plus: np.ndarray
    w1_minus: np.ndarray
    w2_minus: np.ndarray


def _strip_bytes(arr: np.ndarray) -> bytes:
    # row-major by x2 level, bottom level first
    return np.ascontiguousarray(arr.T).astype("<f8").tobytes()


def write_snapshot(path: str | Path, snap: Snapshot) -> None:
    n1 = snap.h.size
    n2p = snap.p_plus.shape[1]
    n2m = snap.p_minus.shape[1]
    blob = [SNAPSHOT_MAGIC,
            struct.pack("<IIII", SNAPSHOT_VERSION, n1, n2p, n2m),
            struct.pack("<d", snap.t),
            snap.h.astype("<f8").tobytes(),
            snap.f.astype("<f8").tobytes()]
    for arr in (snap.p_plus, snap.p_minus, snap.w1_plus, snap.w2_plus,
                snap.w1_minus, snap.w2_minus):
        blob.append(_strip_bytes(arr))
    Path(path).write_bytes(b"".join(blob))


def read_snapshot(path: str | Path) -> Snapshot:
    """Parse a snapshot; ValueError unless the file is exactly the size its
    header declares."""
    data = Path(path).read_bytes()
    if data[:4] != SNAPSHOT_MAGIC:
        raise ValueError("not a snapshot file (bad magic)")
    off = 28
    if len(data) < off:
        raise ValueError(f"snapshot header needs {off} bytes, file has {len(data)}")
    version, n1, n2p, n2m = struct.unpack_from("<IIII", data, 4)
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    expected = off + 8 * n1 * (2 + 3 * (n2p + n2m))
    if len(data) != expected:
        raise ValueError(f"snapshot header declares {expected} bytes, file has {len(data)}")
    (t,) = struct.unpack_from("<d", data, 20)

    def take(count):
        nonlocal off
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=off).copy()
        off += 8 * count
        return arr

    h = take(n1)
    f = take(n1)

    def take_strip(n2):
        return take(n1 * n2).reshape(n2, n1).T.copy()

    p_plus = take_strip(n2p)
    p_minus = take_strip(n2m)
    w1_plus = take_strip(n2p)
    w2_plus = take_strip(n2p)
    w1_minus = take_strip(n2m)
    w2_minus = take_strip(n2m)
    return Snapshot(t, h, f, p_plus, p_minus, w1_plus, w2_plus, w1_minus, w2_minus)


def _snapshot_from_eval(t: float, h: np.ndarray, f: np.ndarray, head) -> Snapshot:
    return Snapshot(
        t=t, h=h.copy(), f=f.copy(),
        p_plus=head.p_plus.values, p_minus=head.p_minus.values,
        w1_plus=head.w1_plus.values, w2_plus=head.w2_plus.values,
        w1_minus=head.w1_minus.values, w2_minus=head.w2_minus.values,
    )


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    config: dict
    version: str
    start_time: str
    end_time: str
    termination: str
    error: str | None
    files: list


def write_manifest(path: str | Path, manifest: RunManifest) -> None:
    Path(path).write_text(json.dumps(asdict(manifest), indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def cmd_run(config_path: str) -> int:
    try:
        config, h0, f = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(config.output_dir) if config.output_dir else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    start = _now()

    try:
        traj = evolution.run(config, h0, f)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    files = []
    csv_path = out_dir / "timeseries.csv"
    write_timeseries_csv(csv_path, traj.reports)
    files.append(csv_path.name)

    if traj.samples:
        for tag, smp, head in (("initial", traj.samples[0], traj.initial_head),
                               ("final", traj.samples[-1], traj.final_head)):
            snap_path = out_dir / f"snapshot_{tag}.mskt"
            write_snapshot(snap_path,
                           _snapshot_from_eval(smp.t, smp.state.h.values, f.values, head))
            files.append(snap_path.name)

    manifest = RunManifest(
        config=json.loads(Path(config_path).read_text()),
        version=__version__,
        start_time=start,
        end_time=_now(),
        termination=traj.termination,
        error=traj.error,
        files=files + ["manifest.json"],
    )
    write_manifest(out_dir / "manifest.json", manifest)

    if traj.termination == evolution.TERMINATION_COMPLETED:
        return EXIT_OK
    if traj.termination in (evolution.TERMINATION_GAP, evolution.TERMINATION_DEGENERATE):
        return EXIT_PHYSICAL
    return EXIT_SOLVER


def cmd_dispersion(beta_plus: float, beta_minus: float, k_max: int) -> int:
    if k_max < 1:
        print("error: k_max must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if beta_plus <= 0 or beta_minus <= 0:
        print("error: permeabilities must be positive", file=sys.stderr)
        return EXIT_USAGE
    profile = PermeabilityProfile(PeriodicField1D.zeros(4), beta_plus, beta_minus)
    table = diagnostics.dispersion_table(k_max, profile)
    print("k,sigma")
    for k, s in zip(table.modes, table.sigma):
        print(f"{k},{_fmt(s)}")
    return EXIT_OK


# -- check suite -------------------------------------------------------------


def _check_rest_state(config) -> tuple[bool, str]:
    small = evolution.SimConfig(n1=64, n2_plus=24, n2_minus=24,
                                beta_plus=config.beta_plus,
                                beta_minus=config.beta_minus, t_end=1.0)
    h0 = PeriodicField1D.zeros(small.n1)
    for f_modes in ([], [(1, 0.2, 0.0)]):
        f = PeriodicField1D.from_modes(small.n1, f_modes)
        profile = PermeabilityProfile(f, small.beta_plus, small.beta_minus)
        _, head, _, _ = evolution._evaluate(h0.values, profile, small)
        w_max = max(float(np.max(np.abs(s.values))) for s in
                    (head.w1_plus, head.w2_plus, head.w1_minus, head.w2_minus))
        if w_max > 1e-9:
            return False, f"rest-state velocity {w_max:.3e} exceeds 1e-9"
    return True, "flat interface is steady (f = 0 and f = 0.2 cos x1)"


def _check_piola(config) -> tuple[bool, str]:
    h = PeriodicField1D.from_modes(64, [(1, 0.1, 0.0)])
    f = PeriodicField1D.from_modes(64, [(1, 0.0, 0.1)])
    profile = PermeabilityProfile(f, config.beta_plus, config.beta_minus)
    residuals = {}
    for n2 in (17, 33):
        grid = StripGrid(UPPER, 64, n2)
        shift = harmonic_extension(h, f, grid)
        pack = metric_terms(shift, profile)
        r1, r2 = piola_divergence(pack)
        same = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
        if same > 1e-10:
            return False, f"same-stencil divergence {same:.3e} not at roundoff"
        pack_an = metric_terms(
            shift, profile, d2_values=vertical_derivative_exact(h, f, grid).values)
        r1a, _ = piola_divergence(pack_an)
        residuals[n2] = float(np.max(np.abs(r1a)))
    order = math.log2(residuals[17] / residuals[33])
    ok = order >= 1.7
    return ok, f"analytic-gradient divergence order {order:.2f} (17 -> 33 levels)"


def _check_dispersion(config) -> tuple[bool, str]:
    small = evolution.SimConfig(n1=64, n2_plus=32, n2_minus=32,
                                beta_plus=config.beta_plus,
                                beta_minus=config.beta_minus,
                                t_end=1.0, report_every=2)
    f = PeriodicField1D.zeros(small.n1)
    profile = PermeabilityProfile(f, small.beta_plus, small.beta_minus)
    sigma = diagnostics.dispersion_rate(1, profile)
    h0 = PeriodicField1D.from_modes(small.n1, [(1, 1e-4, 0.0)])
    traj = evolution.run(small, h0, f)
    if traj.termination != evolution.TERMINATION_COMPLETED:
        return False, f"probe run terminated with {traj.termination}"
    gamma, _ = diagnostics.decay_fit(traj.reports)
    rate = -gamma / 2.0
    rel = abs(rate - sigma) / abs(sigma)
    return rel <= 0.02, (f"mode-1 decay rate {rate:.6f} vs linearized {sigma:.6f} "
                         f"(rel err {rel:.2e})")


def _check_l2_law(config) -> tuple[bool, str]:
    small = evolution.SimConfig(n1=64, n2_plus=32, n2_minus=32,
                                beta_plus=config.beta_plus,
                                beta_minus=config.beta_minus,
                                t_end=0.5, report_every=4)
    h0 = PeriodicField1D.from_modes(small.n1, [(1, 0.05, 0.0)])
    f = PeriodicField1D.from_modes(small.n1, [(1, 0.1, 0.0)])
    traj = evolution.run(small, h0, f)
    if traj.termination != evolution.TERMINATION_COMPLETED:
        return False, f"probe run terminated with {traj.termination}"
    worst = max(abs(r.l2_law_residual) for r in traj.reports)
    return worst <= 5e-3, f"energy-law relative residual {worst:.3e} (tol 5e-3)"


def _check_cfl(config) -> tuple[bool, str]:
    probe = evolution.SimConfig(n1=32, n2_plus=8, n2_minus=8,
                                beta_plus=config.beta_plus,
                                beta_minus=config.beta_minus,
                                dt_safety=config.dt_safety,
                                t_end=40 * evolution.SimConfig(
                                    n1=32, beta_plus=config.beta_plus,
                                    beta_minus=config.beta_minus,
                                    dt_safety=config.dt_safety).dt,
                                report_every=5)
    # seed every mode so the stiffest one is exercised
    modes = [(k, 1e-6, 0.0) for k in range(1, probe.n1 // 2 + 1)]
    h0 = PeriodicField1D.from_modes(probe.n1, modes)
    f = PeriodicField1D.zeros(probe.n1)
    traj = evolution.run(probe, h0, f)
    if traj.termination != evolution.TERMINATION_COMPLETED:
        return False, f"stability probe terminated with {traj.termination}"
    e0 = traj.reports[0].script_E
    worst = max(r.script_E for r in traj.reports)
    ok = worst <= 2.0 * e0
    return ok, (f"curvature energy grew by x{worst / e0:.3g} over the probe"
                if not ok else
                f"explicit step stable at dt_safety = {config.dt_safety}")


def cmd_check(config_path: str) -> int:
    try:
        config, _, _ = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    checks = [
        ("rest_state", _check_rest_state),
        ("piola", _check_piola),
        ("dispersion_consistency", _check_dispersion),
        ("l2_law", _check_l2_law),
        ("cfl", _check_cfl),
    ]
    all_ok = True
    for name, fn in checks:
        try:
            ok, detail = fn(config)
        except Exception as exc:  # a failed check must not kill the suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_convergence(config_path: str) -> int:
    try:
        config, h0, f = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    tail = _spectral_tail_fraction(h0) + _spectral_tail_fraction(f)
    if tail > 1e-10:
        print(f"warning: initial data has {tail:.2e} of its energy in the top "
              "third of the spectrum; n1 may be under-resolved")

    def final_h(n2p, n2m, dt_safety):
        cfg = evolution.SimConfig(
            n1=config.n1, n2_plus=n2p, n2_minus=n2m,
            beta_plus=config.beta_plus, beta_minus=config.beta_minus,
            dt_safety=dt_safety, t_end=config.t_end,
            gap_tol=config.gap_tol, j_min=config.j_min, solver=config.solver,
            report_every=10 ** 9)
        traj = evolution.run(cfg, h0, f)
        if traj.termination != evolution.TERMINATION_COMPLETED:
            raise RuntimeError(f"run terminated with {traj.termination}")
        return traj.samples[-1].state.h.values

    def refine(n2, factor):
        return factor * (n2 - 1) + 1

    levels = [(config.n2_plus, config.n2_minus),
              (refine(config.n2_plus, 2), refine(config.n2_minus, 2)),
              (refine(config.n2_plus, 4), refine(config.n2_minus, 4))]
    spatial = [final_h(n2p, n2m, config.dt_safety) for n2p, n2m in levels]
    d1 = float(np.max(np.abs(spatial[0] - spatial[1])))
    d2 = float(np.max(np.abs(spatial[1] - spatial[2])))
    if d1 < 1e-13 and d2 < 1e-13:
        print("spatial order: exact (refinement differences at roundoff)")
    else:
        print(f"spatial order: {math.log2(d1 / d2):.2f}  "
              f"(n2 levels {levels[0]} -> {levels[1]} -> {levels[2]})")

    temporal = [final_h(config.n2_plus, config.n2_minus, config.dt_safety / s)
                for s in (1, 2, 4)]
    e1 = float(np.max(np.abs(temporal[0] - temporal[1])))
    e2 = float(np.max(np.abs(temporal[1] - temporal[2])))
    if e1 < 1e-13 and e2 < 1e-13:
        print("temporal order: exact (step-halving differences at roundoff)")
    else:
        print(f"temporal order: {math.log2(e1 / e2):.2f}  "
              f"(dt_safety {config.dt_safety} -> /2 -> /4)")
    return EXIT_OK


def _spectral_tail_fraction(field: PeriodicField1D) -> float:
    c = np.abs(field.coeffs) ** 2
    c[0] = 0.0
    total = float(np.sum(c))
    if total == 0.0:
        return 0.0
    cut = (2 * (c.size - 1)) // 3
    return float(np.sum(c[cut:])) / total


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="muskat",
        description="Porous-strip interface evolution with a permeability jump",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="advance a configured simulation")
    p_run.add_argument("config")

    p_disp = sub.add_parser("dispersion", help="print linearized decay rates")
    p_disp.add_argument("beta_plus", type=float)
    p_disp.add_argument("beta_minus", type=float)
    p_disp.add_argument("k_max", type=int)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("config")

    p_conv = sub.add_parser("convergence", help="measure refinement orders")
    p_conv.add_argument("config")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "dispersion":
        return cmd_dispersion(args.beta_plus, args.beta_minus, args.k_max)
    if args.command == "check":
        return cmd_check(args.config)
    if args.command == "convergence":
        return cmd_convergence(args.config)
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
