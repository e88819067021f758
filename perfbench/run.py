"""End-to-end benchmark of `muskat run`.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 40 --trace 0

One closed-loop client: each `muskat run` starts after the previous one has
ended, each in a fresh interpreter (``child.py``), so caches start cold as on
every CLI invocation.  ``--trace 0`` reports the end-to-end metrics (medians
over the runs made); ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of the traced ones.  Every run's outputs are
checked (``check.py``) outside the timed region.  The last line of standard
output is the JSON result; the lines before it print every metric by name
with its unit, and the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Every child is stopped this long after the script started measuring, so
# that the script ends within 180 s even if the program slows down.
HARD_LIMIT_S = 165
SETUP_SAMPLES = 4
# so that no median rests on a single run when the host is slow
MIN_CYCLES = 2

# Grid, betas and mode numbers are fixed; a seed draws only the phase and a
# +-10% amplitude jitter of each mode, so the cost profile is seed-free.
WORKLOADS = {
    # Fixed per-call costs dominate: 62 steps, a report and a CSV row per
    # step, tiny LU.  beta_minus limits dt 10x below what the top layer needs.
    "coarse_stiff": dict(n1=64, n2_plus=8, n2_minus=8, beta_plus=0.1, beta_minus=1.0,
                         t_end=3.0, h0=[(1, 0.05), (3, 0.01)], f=[(1, 0.2)]),
    # Acceptance criterion 3's configuration at reference scale, 5 steps:
    # sparse LU is most of each evaluation.
    "reference": dict(n1=128, n2_plus=64, n2_minus=64, beta_plus=1.0, beta_minus=0.5,
                      t_end=0.12, h0=[(1, 0.05)], f=[(1, 0.1)]),
    # One step on the finest grid, a working set far past the caches; large
    # amplitude puts the metric far from flat; the largest snapshots.  At
    # 256 x (128+128) a run takes 13 s and --seconds holds only two, too few
    # for a steady median.
    "fine_large_amp": dict(n1=192, n2_plus=96, n2_minus=96, beta_plus=1.0,
                           beta_minus=2.0, t_end=0.006,
                           h0=[(1, 0.2), (3, 0.05)], f=[(2, 0.1)]),
}

# Self-test size: the same physics on a grid small enough to run in a second.
TINY = dict(n1=16, n2_plus=4, n2_minus=4)

END_TO_END = {
    "run_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "MUSKAT_THREADS")


def make_config(workload: str, seed: int, tiny: bool) -> dict:
    """The run configuration of a workload; only phases and amplitudes depend
    on the seed."""
    spec = dict(WORKLOADS[workload])
    rng = random.Random(f"{workload}:{seed}")

    def modes(pairs):
        out = []
        for k, amp in pairs:
            a = amp * rng.uniform(0.9, 1.1)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            out.append([k, a * math.cos(phase), a * math.sin(phase)])
        return out

    cfg = {key: spec[key] for key in ("n1", "n2_plus", "n2_minus", "beta_plus",
                                      "beta_minus", "t_end")}
    cfg.update(dt_safety=0.5, report_every=1, output_dir="out",
               h0_modes=modes(spec["h0"]), f_modes=modes(spec["f"]))
    if tiny:
        cfg.update(TINY)
        dt = cfg["dt_safety"] * (2.0 * math.pi / cfg["n1"]) / max(cfg["beta_plus"],
                                                                 cfg["beta_minus"])
        cfg["t_end"] = 1.5 * dt
    return cfg


def spawn(mode: str, run_dir: Path, env: dict, deadline: float) -> dict:
    """Start child.py in a fresh interpreter and wait for it, at the latest
    until the perf_counter() deadline; its result."""
    result_path = run_dir / f"{mode}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, str(run_dir / "config.json"),
         str(result_path)],
        cwd=run_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=max(1.0, deadline - time.perf_counter()), check=False)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"child ({mode}) exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(result_path.read_text())


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def run_record(args, cfg: dict, steps: int | None) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "commit": git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "grid": {"n1": cfg["n1"], "n2_plus": cfg["n2_plus"], "n2_minus": cfg["n2_minus"]},
        # every node of both strips, the shared permeability line once,
        # minus the Dirichlet top line
        "free_unknowns": cfg["n1"] * (cfg["n2_plus"] + cfg["n2_minus"] - 2),
        # as the last checked run's CSV shows them
        "steps": steps,
    }


def measure(args, cfg: dict, work: Path, env: dict) -> dict:
    """Set-up samples, then runs in a closed loop for args.seconds."""
    import check  # imports muskat: only after main() has put src/ on sys.path

    deadline = time.perf_counter() + HARD_LIMIT_S
    setup, walls, rss, checks, traced, failures = [], [], [], [], [], []
    unmeasured = set()
    steps = None
    attempted = 0
    setup_dir = work / "setup"
    setup_dir.mkdir()
    (setup_dir / "config.json").write_text(json.dumps(cfg))
    # warm-up, not counted: the first import in a fresh checkout compiles
    # the bytecode and reads the libraries from disk
    spawn("setup", setup_dir, env, deadline)
    for _ in range(SETUP_SAMPLES):
        setup.append(spawn("setup", setup_dir, env, deadline)["setup_s"])

    cycle = ("run", "trace") if args.trace else ("run",)
    start = time.perf_counter()
    longest = 0.0
    cycles = 0
    while True:
        t_cycle = time.perf_counter()
        for mode in cycle:
            attempted += 1
            run_dir = work / f"run{attempted}"
            run_dir.mkdir()
            (run_dir / "config.json").write_text(json.dumps(cfg))
            try:
                res = spawn(mode, run_dir, env, deadline)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failures.append({"run": attempted, "mode": mode, "problems": [str(exc)]})
                continue
            setup.append(res["setup_s"])
            out = run_dir / "out"
            t_check = time.perf_counter()
            problems, steps = check.check_run(out, cfg, res["exit_code"])
            checks.append(time.perf_counter() - t_check)
            if problems:
                failures.append({"run": attempted, "mode": mode, "problems": problems})
            if mode == "run":
                walls.append(res["run_wall_s"])
                rss.append(res["peak_rss_mb"])
            else:
                layers = tracer.layer_metrics(res["spans"])
                layers["cli_io.csv_bytes"] = sum(
                    p.stat().st_size for p in out.glob("timeseries.csv"))
                layers["cli_io.snapshot_bytes"] = sum(
                    p.stat().st_size for p in out.glob("snapshot_*.mskt"))
                layers["run_wall_s"] = res["run_wall_s"]
                traced.append(layers)
                unmeasured.update(res["unmeasured"])
            shutil.rmtree(run_dir)
        cycles += 1
        longest = max(longest, time.perf_counter() - t_cycle)
        if cycles >= MIN_CYCLES and time.perf_counter() - start + longest > args.seconds:
            break
    if not walls or (args.trace and not traced):
        raise RuntimeError(f"no run completed: {failures}")
    return {"setup": setup, "walls": walls, "rss": rss, "checks": checks,
            "traced": traced, "failures": failures, "attempted": attempted,
            "unmeasured": sorted(unmeasured), "steps": steps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload on a 16 x (4+4) grid (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "muskat" / "cli_io.py").is_file():
        print(f"error: no muskat sources under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    cfg = make_config(args.workload, args.seed, args.tiny)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        m = measure(args, cfg, work, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len({f["run"] for f in m["failures"]})
    runs = m["walls"]
    record = run_record(args, cfg, m["steps"])
    record.update(
        samples={"setup": len(m["setup"]), "runs": len(runs), "traced": len(m["traced"])},
        failed_frac=failed / m["attempted"], failures=m["failures"],
        check_s_median=statistics.median(m["checks"] or [0.0]), unmeasured=m["unmeasured"],
        run_wall_s_all=runs, setup_s_all=m["setup"])

    if args.trace:
        traced = m["traced"]
        metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        metrics["trace.overhead_s"] = metrics.pop("run_wall_s") - statistics.median(runs)
        units = tracer.LAYER_METRICS
    else:
        metrics = {"run_wall_s": statistics.median(runs),
                   "setup_s": statistics.median(m["setup"]),
                   "peak_rss_mb": statistics.median(m["rss"])}
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": m["attempted"], "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}

    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac = {record['failed_frac']:.6g} fraction "
          f"({failed} of {m['attempted']} runs)")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
