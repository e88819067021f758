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
import os
import struct
import sys
import time
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, evolution
from .diffeo import (
    UPPER,
    PermeabilityProfile,
    StripGrid,
    harmonic_extension,
    piola_divergence,
    vertical_derivative,
    vertical_derivative_exact,
)
from .pressure import HeadSolution
from .spectral_core import PeriodicField1D

__all__ = [
    "ConfigError",
    "load_config",
    "write_timeseries_csv",
    "TIMESERIES_HEADER",
    "write_snapshot",
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

_EXIT_CODES = {
    evolution.TERMINATION_COMPLETED: EXIT_OK,
    evolution.TERMINATION_GAP: EXIT_PHYSICAL,
    evolution.TERMINATION_DEGENERATE: EXIT_PHYSICAL,
    evolution.TERMINATION_SOLVER: EXIT_SOLVER,
}


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {f.name for f in fields(evolution.SimConfig)} | {"h0_modes", "f_modes"}


def _field_from_modes(n1: int, modes, what: str) -> PeriodicField1D:
    """Sum of [k, cos_amp, sin_amp] triples: k an integer in 0..n1/2, each
    amplitude a finite number.  The sine of mode 0 or n1/2 is zero on the
    grid, so a nonzero amplitude for it is an error, not a silent zero."""
    if modes is None:
        return PeriodicField1D.zeros(n1)
    if not (isinstance(modes, list) and all(
            isinstance(mode, list) and len(mode) == 3 and isinstance(mode[0], int)
            and all(map(evolution.is_finite_number, mode)) for mode in modes)):
        raise ConfigError(f"{what} must be a list of [k, cos_amp, sin_amp] triples "
                          "with an integer k and finite amplitudes")
    for k, _, sin_amp in modes:
        if not 0 <= k <= n1 // 2:
            raise ConfigError(f"{what}: mode {k} lies outside 0..{n1 // 2}")
        if sin_amp != 0 and k in (0, n1 // 2):
            raise ConfigError(f"{what}: the sine of mode {k} is zero on {n1} nodes")
    return PeriodicField1D.from_modes(n1, modes)


def load_config(path: str | Path):
    """Parse a run configuration; returns (SimConfig, h0, f, echo), echo the
    JSON object as read.  Unknown keys and data that evolution.run rejects
    are errors, so a command fails before it writes anything.  output_dir is
    resolved relative to the config file's directory."""
    path = Path(path)
    try:
        echo = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(echo, dict):
        raise ConfigError("config must be a JSON object")
    raw = dict(echo)
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    h0_modes = raw.pop("h0_modes", None)
    f_modes = raw.pop("f_modes", None)
    output_dir = raw.pop("output_dir", None)
    if output_dir is not None:
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
        output_dir = str((path.parent / output_dir).resolve())
    try:
        config = evolution.SimConfig(output_dir=output_dir, **raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    try:
        h0 = _field_from_modes(config.n1, h0_modes, "h0_modes")
        f = _field_from_modes(config.n1, f_modes, "f_modes")
        evolution.check_data(config, h0, f)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, h0, f, echo


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _write_atomic(path: str | Path, chunks) -> None:
    """Write the byte chunks to path whole or not at all.

    They go to a temporary file in the target directory, which os.replace
    then moves over path.  If the write fails (a full disk, say), the
    temporary file is removed and a file already at path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_timeseries_csv(path: str | Path, reports) -> None:
    """Full-precision CSV, LF line endings, one row per report."""
    lines = [TIMESERIES_HEADER]
    # EnergyReport's fields are the header's columns, in order
    lines += [",".join(_fmt(v) for v in astuple(r)) for r in reports]
    _write_atomic(path, [("\n".join(lines) + "\n").encode("ascii")])


# ---------------------------------------------------------------------------
# snapshot binary format
# ---------------------------------------------------------------------------


def write_snapshot(path: str | Path, t: float, h: np.ndarray, f: np.ndarray,
                   head: HeadSolution) -> None:
    """README's snapshot, version 1: header, h, f, then P+, P-, w1+, w2+, w1-,
    w2-, the rows of head.p, head.w1 and head.w2 above and below
    head.n2_minus as they are, bottom level first."""
    m = head.n2_minus
    blob = [SNAPSHOT_MAGIC,
            struct.pack("<IIII", SNAPSHOT_VERSION, h.size, head.p.shape[0] - m, m),
            struct.pack("<d", t),
            h.astype("<f8").tobytes(),
            f.astype("<f8").tobytes()]
    blob += [rows.astype("<f8").tobytes()
             for rows in (head.p[m:], head.p[:m], head.w1[m:], head.w2[m:],
                          head.w1[:m], head.w2[:m])]
    _write_atomic(path, blob)


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def write_manifest(path: str | Path, manifest: dict) -> None:
    _write_atomic(path, [(json.dumps(manifest, indent=2) + "\n").encode()])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def cmd_run(config_path: str) -> int:
    """Run a config and write timeseries.csv, the initial and final snapshots
    (the run's own head solutions: nothing is solved after the run) and manifest.json."""
    try:
        config, h0, f, echo = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(config.output_dir) if config.output_dir else Path.cwd()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = _now()
    traj = evolution.run(config, h0, f)

    files = []
    csv_path = out_dir / "timeseries.csv"
    write_timeseries_csv(csv_path, traj.reports)
    files.append(csv_path.name)

    if traj.states:
        for tag, state, head in (("initial", traj.states[0], traj.initial_head),
                                 ("final", traj.states[-1], traj.final_head)):
            snap_path = out_dir / f"snapshot_{tag}.mskt"
            write_snapshot(snap_path, state.t, state.h.values, f.values, head)
            files.append(snap_path.name)

    # the run's record: error_time is the t of the state the run ended at
    # when it terminated early, None when it completed; the ledgers after it
    # are evolution.Trajectory's
    manifest = {
        "config": echo,
        "version": __version__,
        "start_time": start,
        "end_time": _now(),
        "termination": traj.termination,
        "error": traj.error,
        "error_time": traj.error_time,
        "head_solves": traj.head_solves,
        "cg_iterations": traj.cg_iterations,
        "max_abs_mean_h": traj.max_abs_mean_h,
        "max_abs_top_flux": traj.max_abs_top_flux,
        "files": files + ["manifest.json"],
    }
    write_manifest(out_dir / "manifest.json", manifest)

    return _EXIT_CODES[traj.termination]


def cmd_dispersion(beta_plus: float, beta_minus: float, k_max: int) -> int:
    try:
        profile = PermeabilityProfile(PeriodicField1D.zeros(4), beta_plus, beta_minus)
        sigma = diagnostics.dispersion_table(k_max, profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print("k,sigma")
    for k, s in enumerate(sigma, start=1):
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
        head = evolution.Flow(small, f).head(h0.values)
        w_max = max(float(np.max(np.abs(w))) for w in (head.w1, head.w2))
        if w_max > 1e-9:
            return False, f"rest-state velocity {w_max:.3e} exceeds 1e-9"
    return True, "flat interface is steady (f = 0 and f = 0.2 cos x1)"


def _check_piola(config) -> tuple[bool, str]:
    h = PeriodicField1D.from_modes(64, [(1, 0.1, 0.0)])
    f = PeriodicField1D.from_modes(64, [(1, 0.0, 0.1)])
    residuals = {}
    for n2 in (17, 33):
        grid = StripGrid(UPPER, 64, n2)
        shift = harmonic_extension(h, f, grid)
        same = np.max(np.abs(piola_divergence(
            shift, vertical_derivative(shift.values, grid.dx2))))
        if same > 1e-10:
            return False, f"same-stencil divergence {same:.3e} not at roundoff"
        residuals[n2] = float(np.max(np.abs(piola_divergence(
            shift, vertical_derivative_exact(h, f, grid).values))))
    order = math.log2(residuals[17] / residuals[33])
    ok = order >= 1.7
    return ok, f"analytic-gradient divergence order {order:.2f} (17 -> 33 levels)"


def _check_dispersion(config) -> tuple[bool, str]:
    small = evolution.SimConfig(n1=64, n2_plus=32, n2_minus=32,
                                beta_plus=config.beta_plus,
                                beta_minus=config.beta_minus, report_every=2)
    # 20 steps give the fit 11 samples whatever the step size
    small = replace(small, t_end=20 * small.dt)
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
    # on 128 x (8+8) with equal betas the stiffest flat rate is 65 times the
    # slowest, so at the default step dt max|sigma_h| is 12.1, past
    # classical RK4's stability limit of 2.785: only the exponential step
    # stays stable
    probe = evolution.SimConfig(n1=128, n2_plus=8, n2_minus=8,
                                beta_plus=config.beta_plus,
                                beta_minus=config.beta_minus,
                                dt_safety=config.dt_safety, report_every=5)
    probe = replace(probe, t_end=40 * probe.dt)
    # seed every mode so the stiffest one is exercised
    modes = [(k, 1e-6, 0.0) for k in range(1, probe.n1 // 2 + 1)]
    h0 = PeriodicField1D.from_modes(probe.n1, modes)
    f = PeriodicField1D.zeros(probe.n1)
    traj = evolution.run(probe, h0, f)
    if traj.termination != evolution.TERMINATION_COMPLETED:
        return False, f"stability probe terminated with {traj.termination}"
    e0 = traj.reports[0].script_E
    worst = max(r.script_E for r in traj.reports)
    if worst > 2.0 * e0:
        return False, f"curvature energy grew by x{worst / e0:.3g} over the probe"
    stiff = probe.dt * float(np.max(np.abs(probe.sigma_h)))
    return True, (f"exponential step stable at dt_safety = {config.dt_safety}, "
                  f"dt max|sigma_h| = {stiff:.3g} (classical RK4: 2.785)")


def cmd_check(config_path: str) -> int:
    try:
        config = load_config(config_path)[0]
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
        config, h0, f, _ = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for name, field in (("h0", h0), ("f", f)):
        tail = _spectral_tail_fraction(field)
        if tail > 1e-10:
            print(f"warning: {name} has {tail:.2e} of its energy in the top "
                  "third of the spectrum; n1 may be under-resolved")

    def refine(n2, factor):
        return factor * (n2 - 1) + 1

    levels = [(config.n2_plus, config.n2_minus),
              (refine(config.n2_plus, 2), refine(config.n2_minus, 2)),
              (refine(config.n2_plus, 4), refine(config.n2_minus, 4))]
    level_configs = [replace(config, n2_plus=n2p, n2_minus=n2m, report_every=10 ** 9)
                     for n2p, n2m in levels]
    # every run takes whole equal steps, n0 at each n2 level and n0, 2 n0,
    # 4 n0 in time: neither a clipped last step nor a step that already
    # covers t_end makes two refinements the same run
    n0 = max(math.ceil(config.t_end / cfg.dt) for cfg in level_configs)

    # n0 steps at the three n2 levels, then 2 n0 and 4 n0 at the coarsest
    plan = [(cfg, n0) for cfg in level_configs] + [(level_configs[0], n0 * s) for s in (2, 4)]
    finals = []
    for cfg, n_steps in plan:
        # min: a ratio of 1 may round above it
        safety = min(1.0, cfg.dt_safety * config.t_end / (n_steps * cfg.dt))
        traj = evolution.run(replace(cfg, dt_safety=safety), h0, f)
        if traj.termination != evolution.TERMINATION_COMPLETED:
            print(f"error: the run at n2 = ({cfg.n2_plus}, {cfg.n2_minus}) with {n_steps} "
                  f"steps terminated with {traj.termination}: {traj.error}", file=sys.stderr)
            return _EXIT_CODES[traj.termination]
        finals.append(traj.states[-1].h.values)
    print("spatial " + _order(finals[:3], f"n2 levels {levels[0]} -> {levels[1]} -> "
                              f"{levels[2]}, {n0} steps", "refinement"))
    print("temporal " + _order(finals[:1] + finals[3:], f"{n0} -> {2 * n0} -> {4 * n0} steps",
                               "step-halving"))
    return EXIT_OK


def _order(finals, detail: str, what: str) -> str:
    """Observed order from three successively refined final states."""
    d1 = float(np.max(np.abs(finals[0] - finals[1])))
    d2 = float(np.max(np.abs(finals[1] - finals[2])))
    if max(d1, d2) < 1e-13:
        return f"order: exact ({what} differences at roundoff)"
    if min(d1, d2) < 1e-13:
        return f"order: unresolved ({what} differences {d1:.1e}, {d2:.1e})"
    return f"order: {math.log2(d1 / d2):.2f}  ({detail})"


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
