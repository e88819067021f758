"""Output check of one `muskat run`, independent of the code under test where
it can be.

The CSV and snapshot formats are parsed from their documented layout rather
than through ``muskat.cli_io``.  The final snapshot's heads are compared with
an oracle: ``pressure.solve_head(..., solver="direct")`` on the snapshot's own
``h``.  The step count is not predicted from a step-size rule, so that a
change of integrator or of ``dt`` passes when its outputs are right: the
CSV times must start at 0, increase and end at ``t_end``.  ``check_run``
returns the list of problems found, where an empty list means the run's
outputs are correct, and the number of steps the CSV shows.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np
from muskat.diffeo import (LOWER, UPPER, PermeabilityProfile, StripGrid,
                           harmonic_extension, metric_terms)
from muskat.errors import MuskatError
from muskat.pressure import solve_head
from muskat.spectral_core import PeriodicField1D

CSV_HEADER = ("t,l2_h,h2_h,h2p5_h,scriptE,scriptD,rt_margin,"
              "l2_law_residual,coupling_ratio")
MEAN_TOL = 1e-10  # acceptance criterion 5: interface mean
HEAD_TOL = 1e-8   # acceptance criterion 8: agreement with the direct solver
T_TOL = 1e-12     # evolution.run lands on t_end to within this


def read_snapshot(path: Path) -> dict:
    """Parse the documented little-endian snapshot layout into arrays;
    strip arrays come back as (n1, n2)."""
    data = path.read_bytes()
    if len(data) < 28 or data[:4] != b"MSKT":
        raise ValueError(f"{path.name}: bad magic or truncated header")
    version, n1, n2p, n2m = struct.unpack_from("<IIII", data, 4)
    if version != 1:
        raise ValueError(f"{path.name}: snapshot version {version}")
    expected = 28 + 8 * (2 * n1 + 3 * n1 * (n2p + n2m))
    if len(data) != expected:
        raise ValueError(f"{path.name}: {len(data)} bytes, expected {expected}")
    values = np.frombuffer(data, dtype="<f8", offset=28)
    snap = {"t": struct.unpack_from("<d", data, 20)[0],
            "h": values[:n1], "f": values[n1:2 * n1]}
    off = 2 * n1
    for name, n2 in (("p_plus", n2p), ("p_minus", n2m), ("w1_plus", n2p),
                     ("w2_plus", n2p), ("w1_minus", n2m), ("w2_minus", n2m)):
        snap[name] = values[off:off + n1 * n2].reshape(n2, n1).T
        off += n1 * n2
    return snap


def oracle_heads(cfg: dict, h_values: np.ndarray):
    """Direct-solver heads (upper, lower) for interface h under cfg."""
    n1 = cfg["n1"]
    h = PeriodicField1D(np.array(h_values))
    f = PeriodicField1D.from_modes(n1, cfg["f_modes"])
    profile = PermeabilityProfile(f, cfg["beta_plus"], cfg["beta_minus"])
    packs = [metric_terms(harmonic_extension(h, f, StripGrid(strip, n1, n2)), profile)
             for strip, n2 in ((UPPER, cfg["n2_plus"]), (LOWER, cfg["n2_minus"]))]
    head = solve_head(packs[0], packs[1], h, profile, solver="direct")
    return head.p_plus.values, head.p_minus.values


def check_run(out_dir: Path, cfg: dict, exit_code: int) -> tuple[list[str], int | None]:
    """Problems with one run's outputs in out_dir ([] if it is correct), and
    the steps taken: the CSV rows after the t = 0 row when report_every is 1
    (one row per step), else None; also None when the CSV times are wrong."""
    problems, steps = [], None
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        termination = json.loads((out_dir / "manifest.json").read_text())["termination"]
        if termination != "completed":
            problems.append(f"termination {termination!r}")

        lines = (out_dir / "timeseries.csv").read_text().split("\n")
        if lines[0] != CSV_HEADER:
            problems.append("timeseries.csv header differs")
        rows = [line.split(",") for line in lines[1:] if line]
        if any(len(row) != 9 for row in rows):
            problems.append("timeseries.csv row without 9 columns")
        values = [[float(v) for v in row] for row in rows]
        if not all(math.isfinite(v) for row in values for v in row):
            problems.append("timeseries.csv has a non-finite value")
        times = [row[0] for row in values]
        if not times or times[0] != 0.0:
            problems.append("timeseries.csv does not start at t = 0")
        elif any(b <= a for a, b in zip(times, times[1:])):
            problems.append("timeseries.csv times do not increase")
        elif abs(times[-1] - cfg["t_end"]) > T_TOL:
            problems.append(f"timeseries.csv ends at t = {times[-1]!r}, not t_end")
        elif cfg["report_every"] == 1:
            steps = len(times) - 1

        snap = read_snapshot(out_dir / "snapshot_final.mskt")
        arrays = [v for k, v in snap.items() if k != "t"]
        if abs(snap["t"] - cfg["t_end"]) > T_TOL:
            problems.append(f"snapshot_final is at t = {snap['t']!r}, not t_end")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append("snapshot_final has a non-finite value")
        elif abs(float(np.mean(snap["h"]))) > MEAN_TOL:
            problems.append(f"final interface mean {np.mean(snap['h']):.3e} > {MEAN_TOL}")
        else:
            p_plus, p_minus = oracle_heads(cfg, snap["h"])
            diff = max(float(np.max(np.abs(p_plus - snap["p_plus"]))),
                       float(np.max(np.abs(p_minus - snap["p_minus"]))))
            if not diff <= HEAD_TOL:
                problems.append(f"final head differs from direct solve by {diff:.3e}")
    except (OSError, ValueError, KeyError, IndexError, MuskatError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems, steps
