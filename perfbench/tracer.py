"""In-memory span tracer for one `muskat run`, and the per-layer metrics
derived from its spans.

The tracer wraps public functions of the muskat modules under the names their
callers bind (``evolution.solve_head`` is the binding that ``evolution``
imports from ``pressure``), so nothing under ``src/`` is edited.  A layer is
the muskat module that defines the function.  Each span is
``[name, start, end, parent]`` with ``perf_counter`` times and the index of
the enclosing span (-1 for none); spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module whose binding is replaced, attribute, span name "layer.function")
WRAPPED = (
    ("cli_io", "main", "cli_io.main"),
    ("cli_io", "cmd_run", "cli_io.cmd_run"),
    ("cli_io", "load_config", "cli_io.load_config"),
    ("cli_io", "write_timeseries_csv", "cli_io.write_timeseries_csv"),
    ("cli_io", "write_snapshot", "cli_io.write_snapshot"),
    ("evolution", "run", "evolution.run"),
    ("evolution", "step", "evolution.step"),
    ("evolution", "solve_head", "pressure.solve_head"),
    ("evolution", "harmonic_extension", "diffeo.harmonic_extension"),
    ("evolution", "metric_terms", "diffeo.metric_terms"),
    ("diagnostics", "report", "diagnostics.report"),
    ("diagnostics", "dissipation_l2", "diagnostics.dissipation_l2"),
    ("diffeo", "x1_derivative", "spectral_core.x1_derivative"),
    ("diagnostics", "x1_derivative", "spectral_core.x1_derivative"),
    ("diagnostics", "deriv", "spectral_core.deriv"),
    ("diagnostics", "sobolev_norm", "spectral_core.sobolev_norm"),
)

# name -> unit; the order is the order of the printed result
LAYER_METRICS = {
    "pressure.solve_calls": "count",
    "pressure.solve_calls_outside_run": "count",
    "pressure.first_solve_ms": "ms",
    "pressure.solve_ms_p50": "ms",
    "pressure.solve_ms_p90": "ms",
    "pressure.share": "fraction",
    "evolution.steps": "count",
    "evolution.solves_per_step": "count",
    "evolution.step_ms_p50": "ms",
    "evolution.self_ms": "ms",
    "diffeo.extension_calls": "count",
    "diffeo.extension_ms_p50": "ms",
    "diffeo.metric_calls": "count",
    "diffeo.metric_ms_p50": "ms",
    "diagnostics.report_calls": "count",
    "diagnostics.report_ms_p50": "ms",
    "diagnostics.dissipation_ms_p50": "ms",
    "diagnostics.self_ms": "ms",
    "spectral_core.calls": "count",
    "spectral_core.self_ms": "ms",
    "cli_io.load_config_ms": "ms",
    "cli_io.csv_ms": "ms",
    "cli_io.csv_bytes": "bytes",
    "cli_io.snapshot_ms": "ms",
    "cli_io.snapshot_bytes": "bytes",
    "cli_io.cmd_run_self_ms": "ms",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans from the wrapped bindings of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.unmeasured: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Replace every binding in WRAPPED that exists by a traced wrapper.

        A module or attribute that no longer exists is listed in
        ``unmeasured`` instead of raising.
        """
        for module, attr, name in WRAPPED:
            try:
                mod = importlib.import_module(f"muskat.{module}")
            except ImportError:
                self.unmeasured.append(f"{module}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.unmeasured.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(fn, name))

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100); 0.0 if empty."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced run.

    Self time of a span is its duration minus the durations of its direct
    children (calls are sequential, so children never overlap).  Output sizes
    (``cli_io.*_bytes``) and ``trace.overhead_s`` are not span data; the
    caller adds them.
    """
    dur = [end - start for _, start, end, _ in spans]
    self_s = list(dur)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            self_s[parent] -= dur[i]

    def idx(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def ms(indices, q):
        return 1e3 * percentile([dur[i] for i in indices], q)

    def layer_self_ms(layer):
        return 1e3 * sum(s for s, span in zip(self_s, spans)
                         if span[0].split(".", 1)[0] == layer)

    solves = idx("pressure.solve_head")
    steps = idx("evolution.step")
    stage_solves = [i for i in solves if has_ancestor(i, "evolution.step")]
    main_s = sum(dur[i] for i in idx("cli_io.main"))
    spectral = [i for i, s in enumerate(spans) if s[0].startswith("spectral_core.")]
    return {
        "pressure.solve_calls": len(solves),
        "pressure.solve_calls_outside_run":
            sum(1 for i in solves if not has_ancestor(i, "evolution.run")),
        "pressure.first_solve_ms": 1e3 * dur[solves[0]] if solves else 0.0,
        "pressure.solve_ms_p50": ms(solves, 50),
        "pressure.solve_ms_p90": ms(solves, 90),
        "pressure.share": sum(dur[i] for i in solves) / main_s if main_s else 0.0,
        "evolution.steps": len(steps),
        "evolution.solves_per_step": len(stage_solves) / len(steps) if steps else 0.0,
        "evolution.step_ms_p50": ms(steps, 50),
        "evolution.self_ms": layer_self_ms("evolution"),
        "diffeo.extension_calls": len(idx("diffeo.harmonic_extension")),
        "diffeo.extension_ms_p50": ms(idx("diffeo.harmonic_extension"), 50),
        "diffeo.metric_calls": len(idx("diffeo.metric_terms")),
        "diffeo.metric_ms_p50": ms(idx("diffeo.metric_terms"), 50),
        "diagnostics.report_calls": len(idx("diagnostics.report")),
        "diagnostics.report_ms_p50": ms(idx("diagnostics.report"), 50),
        "diagnostics.dissipation_ms_p50": ms(idx("diagnostics.dissipation_l2"), 50),
        "diagnostics.self_ms": layer_self_ms("diagnostics"),
        "spectral_core.calls": len(spectral),
        "spectral_core.self_ms": layer_self_ms("spectral_core"),
        "cli_io.load_config_ms": 1e3 * sum(dur[i] for i in idx("cli_io.load_config")),
        "cli_io.csv_ms": 1e3 * sum(dur[i] for i in idx("cli_io.write_timeseries_csv")),
        "cli_io.snapshot_ms": 1e3 * sum(dur[i] for i in idx("cli_io.write_snapshot")),
        "cli_io.cmd_run_self_ms": 1e3 * sum(self_s[i] for i in idx("cli_io.cmd_run")),
    }
