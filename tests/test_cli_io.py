import importlib.util
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import muskat
from muskat import cli_io
from muskat.cli_io import (
    ConfigError,
    TIMESERIES_HEADER,
    cmd_check,
    cmd_convergence,
    cmd_dispersion,
    cmd_run,
    load_config,
    main,
    write_manifest,
    write_snapshot,
    write_timeseries_csv,
)
from muskat import evolution
from muskat.diagnostics import EnergyReport
from muskat.diffeo import (
    LOWER,
    UPPER,
    PermeabilityProfile,
    StripGrid,
    harmonic_extension,
    metric_terms,
)
from muskat.errors import DiffeoDegenerate, SolverDivergence
from muskat.pressure import solve_head
from muskat.spectral_core import PeriodicField1D, nodes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCHMARK_WORKLOADS = ("coarse_stiff", "reference", "fine_large_amp")


def perfbench_module(name):
    """perfbench/<name>.py, loaded as it is; run.py imports its sibling
    tracer, so the directory is on sys.path while a module loads."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def write_config(path, **overrides):
    base = {
        "n1": 32,
        "n2_plus": 9,
        "n2_minus": 9,
        "beta_plus": 1.0,
        "beta_minus": 0.5,
        "t_end": 0.2,
        "report_every": 2,
        "h0_modes": [[1, 0.05, 0.0]],
        "f_modes": [[1, 0.1, 0.0]],
        "output_dir": "out",
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return base


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        written = write_config(cfg_path)
        config, h0, f, echo = load_config(cfg_path)
        assert echo == written
        assert config.n1 == 32
        assert config.beta_minus == 0.5
        assert config.output_dir == str(tmp_path / "out")
        x = nodes(h0.n)
        assert np.allclose(h0.values, 0.05 * np.cos(x), atol=1e-14)
        assert np.allclose(f.values, 0.1 * np.cos(x), atol=1e-14)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, dt_safetty=0.5)
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(cfg_path)

    def test_invalid_value_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, beta_plus=-1.0)
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_non_string_output_dir_rejected(self, tmp_path):
        # unchecked, Path / 5 ended the command in a TypeError traceback
        cfg_path = tmp_path / "run.json"
        for bad in (5, ["out"]):
            write_config(cfg_path, output_dir=bad)
            with pytest.raises(ConfigError, match="output_dir must be a string"):
                load_config(cfg_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("text, message", [('{"n1": 32,', "is not valid JSON"),
                                               ("[1, 2]", "must be a JSON object")],
                             ids=["invalid_json", "not_an_object"])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(cfg_path)

    def test_cg_solver_rejected(self, tmp_path):
        # runs always solve with CG; there is no solver key to set
        cfg_path = tmp_path / "run.json"
        for solver in ("cg", "krylov", "direct"):
            write_config(cfg_path, solver=solver)
            with pytest.raises(ConfigError, match=r"unknown config keys: \['solver'\]"):
                load_config(cfg_path)

    # at n1 = 16 each of these once loaded: 1.5 and true as mode 1, 17 as an
    # alias of mode 1, and the sines of modes 0 and 8 as a zero field
    @pytest.mark.parametrize("modes", [
        [[1.5, 0.05, 0.0]], [[True, 0.05, 0.0]], [[17, 0.05, 0.0]], [[-1, 0.05, 0.0]],
        [[8, 0.0, 0.05]], [[0, 0.0, 0.05]], [[1, True, 0.0]], [[1, 0.05, math.inf]],
        [[1, 0.05]], [1, 0.05, 0.0],
    ], ids=["float_k", "bool_k", "k_past_nyquist", "negative_k", "nyquist_sine",
            "mean_sine", "bool_amplitude", "infinite_amplitude", "pair", "flat_list"])
    def test_bad_mode_triples_rejected(self, tmp_path, modes):
        cfg_path = tmp_path / "run.json"
        for key in ("h0_modes", "f_modes"):
            write_config(cfg_path, n1=16, **{key: modes})
            with pytest.raises(ConfigError, match=key):
                load_config(cfg_path)

    def test_edge_modes_accepted(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n1=16, h0_modes=[[8, 0.01, 0.0], [2, 1, 0]],
                     f_modes=[[0, 0.1, 0.0]])
        _, h0, f, _ = load_config(cfg_path)
        x = nodes(h0.n)
        assert np.allclose(h0.values, 0.01 * np.cos(8 * x) + np.cos(2 * x), atol=1e-14)
        assert np.allclose(f.values, 0.1, atol=1e-14)


class TestTimeseries:
    def test_header_and_precision(self, tmp_path):
        rep = EnergyReport(t=0.1, l2_h=1 / 3, h2_h=2.0, h2p5_h=3.0,
                           script_E=4.0, script_D=5.0, rt_margin=1.0,
                           l2_law_residual=-1e-12, coupling_ratio=0.5)
        path = tmp_path / "ts.csv"
        write_timeseries_csv(path, [rep])
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == TIMESERIES_HEADER
        assert "0.33333333333333331" in lines[1]
        assert "\r" not in text


def head_of(n2_minus, p, w1, w2):
    """What write_snapshot reads of a head solution: the stacked arrays, each
    (n2_minus + n2_plus, n1), and the split between their strips."""
    return SimpleNamespace(n2_minus=n2_minus, p=p, w1=w1, w2=w2)


def strip_rows(head):
    """perfbench/check.py::read_snapshot's strip arrays, each (n1, n2), as the
    row slices of the head solution whose transposes they are."""
    m = head.n2_minus
    return {"p_plus": head.p[m:], "p_minus": head.p[:m], "w1_plus": head.w1[m:],
            "w2_plus": head.w2[m:], "w1_minus": head.w1[:m], "w2_minus": head.w2[:m]}


@contextmanager
def file_size_limit(nbytes):
    """Writes that would grow a file past nbytes fail with EFBIG, as on a
    full disk (RLIMIT_FSIZE of this process, restored on exit)."""
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


class TestOutputFiles:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        rep = EnergyReport(t=0.1, l2_h=1 / 3, h2_h=2.0, h2p5_h=3.0, script_E=4.0,
                           script_D=5.0, rt_margin=1.0, l2_law_residual=-1e-12,
                           coupling_ratio=0.5)

        def snap(n2):
            return 0.5, np.zeros(4), np.ones(4), head_of(n2, *np.full((3, 2 * n2, 4), 2.0))

        def manifest(files):
            return {"config": {}, "version": "0", "start_time": "", "end_time": "",
                    "termination": "completed", "error": None, "error_time": None,
                    "head_solves": 0, "cg_iterations": 0, "max_abs_mean_h": 0.0,
                    "max_abs_top_flux": 0.0, "files": files}

        # (writer, file name, arguments of an output under 1 KiB and of one
        # that the limit cuts)
        cases = [(write_timeseries_csv, "timeseries.csv", ([rep],), ([rep] * 40,)),
                 (write_snapshot, "snapshot.mskt", snap(3), snap(30)),
                 (write_manifest, "manifest.json", (manifest(["a"]),),
                  (manifest(["a" * 50] * 40),))]
        for write, name, small, large in cases:
            path = tmp_path / name
            write(path, *small)
            before = path.read_bytes()
            with file_size_limit(1024), pytest.raises(OSError):
                write(path, *large)
            assert path.read_bytes() == before, name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(c[1] for c in cases)
        kept = perfbench_module("check").read_snapshot(tmp_path / "snapshot.mskt")
        assert kept["p_plus"].shape == kept["p_minus"].shape == (4, 3)


class TestSnapshot:
    """write_snapshot against perfbench/check.py::read_snapshot, which parses
    README's layout independently of the package."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data(), n1=st.integers(1, 8).map(lambda k: 2 * k),
           n2_plus=st.integers(3, 9), n2_minus=st.integers(3, 9), t=st.floats())
    def test_round_trip_bit_exact(self, tmp_path_factory, data, n1, n2_plus, n2_minus, t):
        # every float64 bit pattern survives: NaN payloads, infinities, -0.0
        def array(shape):
            return data.draw(hnp.arrays(np.float64, shape, elements=st.floats()))

        check = perfbench_module("check")
        h, f = array(n1), array(n1)
        head = head_of(n2_minus, *(array((n2_minus + n2_plus, n1)) for _ in range(3)))
        path = tmp_path_factory.mktemp("snap") / "a.mskt"
        write_snapshot(path, t, h, f, head)
        snap = check.read_snapshot(path)
        assert np.float64(snap["t"]).tobytes() == np.float64(t).tobytes()
        want = {"h": h, "f": f, **strip_rows(head)}
        assert set(snap) == {"t", *want}
        for name, rows in want.items():
            got = snap[name].T  # (n1, n2) per strip; a no-op on h and f
            assert got.shape == rows.shape and got.tobytes() == rows.tobytes(), name

    def test_magic_and_layout(self, tmp_path):
        # distinct values, 4 x (5 + 3) levels: the file holds P+, P-, w1+,
        # w2+, w1-, w2-, each level after level from its strip's bottom up
        p, w1, w2 = np.arange(3 * 8 * 4, dtype=float).reshape(3, 8, 4)
        path = tmp_path / "s.mskt"
        write_snapshot(path, 1.0, np.zeros(4), np.zeros(4), head_of(3, p, w1, w2))
        blob = path.read_bytes()
        assert blob[:4] == b"MSKT"
        # header 28 bytes + (2*4 + 3*32) doubles
        assert len(blob) == 28 + 8 * (8 + 96)
        snap = perfbench_module("check").read_snapshot(path)
        names = ("p_plus", "p_minus", "w1_plus", "w2_plus", "w1_minus", "w2_minus")
        for name, want in zip(names, (p[3:], p[:3], w1[3:], w2[3:], w1[:3], w2[:3])):
            assert np.array_equal(snap[name].T, want), name


class TestCmdRun:
    def test_completed_run_artifacts(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        assert cmd_run(str(cfg_path)) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "completed"
        assert manifest["error_time"] is None
        assert set(manifest["files"]) == {
            "timeseries.csv", "snapshot_initial.mskt", "snapshot_final.mskt",
            "manifest.json"}
        for name in manifest["files"]:
            assert (out / name).exists()
        csv_lines = (out / "timeseries.csv").read_text().strip().split("\n")
        assert csv_lines[0] == TIMESERIES_HEADER
        assert len(csv_lines) > 2
        snap = perfbench_module("check").read_snapshot(out / "snapshot_final.mskt")
        assert snap["p_plus"].shape == snap["p_minus"].shape == (32, 9)

    def test_deterministic_replay(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            cfg_path = tmp_path / f"{name}.json"
            write_config(cfg_path, output_dir=name)
            assert cmd_run(str(cfg_path)) == 0
            outputs.append((tmp_path / name / "timeseries.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_snapshots_need_no_solve_outside_run(self, tmp_path, monkeypatch):
        calls = {"inside": 0, "outside": 0, "in_run": False}
        runs = []
        real_solve, real_run = evolution.solve_head, evolution.run

        def counted_solve(*args, **kwargs):
            calls["inside" if calls["in_run"] else "outside"] += 1
            return real_solve(*args, **kwargs)

        def flagged_run(*args, **kwargs):
            calls["in_run"] = True
            try:
                runs.append(real_run(*args, **kwargs))
                return runs[-1]
            finally:
                calls["in_run"] = False

        monkeypatch.setattr(evolution, "solve_head", counted_solve)
        monkeypatch.setattr(evolution, "run", flagged_run)
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        assert cmd_run(str(cfg_path)) == 0
        assert calls["outside"] == 0
        assert calls["inside"] > 0
        (traj,) = runs
        assert traj.head_solves == calls["inside"]

        # the snapshots are the run's own heads, byte for byte; a cold solve
        # of the same state (CG from zero, not from a neighbouring stage's
        # head) agrees with them to the oracle's 1e-8
        check = perfbench_module("check")
        config, _, f, _ = load_config(cfg_path)
        flow = evolution.Flow(config, f)
        for tag, state, head in (("initial", traj.states[0], traj.initial_head),
                                 ("final", traj.states[-1], traj.final_head)):
            own = tmp_path / f"own_{tag}.mskt"
            write_snapshot(own, state.t, state.h.values, f.values, head)
            written = tmp_path / "out" / f"snapshot_{tag}.mskt"
            assert own.read_bytes() == written.read_bytes()
            snap = check.read_snapshot(written)
            cold = flow.head(snap["h"])
            for name, rows in strip_rows(cold).items():
                got = snap[name].T
                assert got.shape == rows.shape, (tag, name)
                assert np.max(np.abs(got - rows)) <= 1e-8, (tag, name)

    def test_direct_oracle_reads_as_the_snapshot(self, tmp_path):
        # perfbench/check.py::oracle_heads reads solve_head(...,
        # solver="direct").p_plus and p_minus, (n1, n2) per strip, and
        # compares them with a run's final snapshot as its own read_snapshot
        # parses it.  Stacking that oracle (ROADMAP: retire the per-strip
        # entry points) retires these per-strip views and this test.
        check = perfbench_module("check")
        cfg_path = tmp_path / "run.json"
        cfg = write_config(cfg_path, n2_minus=7)
        assert cmd_run(str(cfg_path)) == 0
        snap = check.read_snapshot(tmp_path / "out" / "snapshot_final.mskt")
        h = PeriodicField1D(np.array(snap["h"]))
        f = PeriodicField1D.from_modes(32, cfg["f_modes"])
        profile = PermeabilityProfile(f, cfg["beta_plus"], cfg["beta_minus"])
        pack_p, pack_m = (metric_terms(harmonic_extension(h, f, StripGrid(strip, 32, n2)),
                                       profile) for strip, n2 in ((UPPER, 9), (LOWER, 7)))
        head = solve_head(pack_p, pack_m, h, profile, solver="direct")
        for view, name, shape in ((head.p_plus, "p_plus", (32, 9)),
                                  (head.p_minus, "p_minus", (32, 7))):
            assert view.values.shape == snap[name].shape == shape, name
            assert np.max(np.abs(view.values - snap[name])) <= check.HEAD_TOL, name
            # read-only views of the stacked head
            assert not view.values.flags.writeable
            assert np.shares_memory(view.values, head.p)

    @pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
    def test_benchmark_check_passes(self, tmp_path, workload):
        # perfbench/check.py on a run of each benchmark workload's tiny
        # config: outputs the benchmark would count as a failed run fail here
        bench, check = perfbench_module("run"), perfbench_module("check")
        assert set(bench.WORKLOADS) == set(BENCHMARK_WORKLOADS)
        cfg = bench.make_config(workload, 1, tiny=True)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cmd_run(str(cfg_path))
        problems, steps = check.check_run(tmp_path / "out", cfg, code)
        assert problems == []
        assert steps >= 1  # report_every = 1: one CSV row per step

    def test_trace_measures_every_layer(self, tmp_path, monkeypatch):
        # perfbench/tracer.py rebinds the functions under the names their
        # callers bind, so a call site that moves leaves its layer unmeasured.
        # The two unmeasured entries are the stale WRAPPED entries of ROADMAP
        # item 1, whose fix must empty this list
        tracer = perfbench_module("tracer")
        for module, attr, _ in tracer.WRAPPED:  # undo the wrapping afterwards
            mod = importlib.import_module(f"muskat.{module}")
            if hasattr(mod, attr):
                monkeypatch.setattr(mod, attr, getattr(mod, attr))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            perfbench_module("run").make_config("coarse_stiff", 1, tiny=True)))
        trace = tracer.Tracer()
        trace.install()
        assert cli_io.main(["run", str(cfg_path)]) == 0
        assert trace.unmeasured == ["diagnostics.dissipation_l2", "diagnostics.deriv"]
        metrics = tracer.layer_metrics(trace.spans)
        solves = json.loads((tmp_path / "out" / "manifest.json").read_text())["head_solves"]
        assert metrics["pressure.solve_calls"] == solves
        assert metrics["pressure.solve_calls_outside_run"] == 0
        # one upper-strip map per solve, and the lower strip's once per run
        assert metrics["diffeo.extension_calls"] == metrics["diffeo.metric_calls"] == solves + 1
        assert metrics["evolution.solves_per_step"] == 3

    def test_rejected_data_writes_nothing(self, tmp_path, capsys):
        # the permeability curve within gap_tol of the floor: evolution.run
        # rejects it, and cmd_run must do so before it creates out/
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n1=16, n2_plus=5, n2_minus=5, f_modes=[[0, -0.97, 0.0]])
        assert cmd_run(str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err == "error: permeability curve within gap_tol of the floor\n"
        assert not (tmp_path / "out").exists()

    def test_unresolvable_contrast_writes_nothing(self, tmp_path, capsys):
        # beyond evolution.MAX_PERMEABILITY_CONTRAST no solver passes the
        # residual gate: the config is rejected before out/ is created
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, beta_plus=1.0, beta_minus=2e5)
        assert cmd_run(str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: beta_minus / beta_plus = 2e+05 ")
        assert "residual gate cannot be certified" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change", ["delete", "rewrite"])
    def test_manifest_echoes_the_config_that_ran(self, tmp_path, monkeypatch, change):
        # the config file changes while the run is under way: the manifest
        # echoes the config as it was loaded
        real_run = evolution.run
        cfg_path = tmp_path / "run.json"
        ran = write_config(cfg_path)

        def changing_run(*args, **kwargs):
            if change == "delete":
                cfg_path.unlink()
            else:
                write_config(cfg_path, t_end=5.0, h0_modes=[[2, 0.01, 0.0]])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(evolution, "run", changing_run)
        assert cmd_run(str(cfg_path)) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"] == ran
        assert "manifest.json" in manifest["files"]

    def test_uncreatable_output_dir(self, tmp_path, capsys):
        # output_dir under a regular file: a config error, not a traceback
        (tmp_path / "blocker").write_text("")
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, output_dir="blocker/out")
        assert cmd_run(str(cfg_path)) == 1
        out_dir = tmp_path / "blocker" / "out"
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out_dir}: ")
        assert not (tmp_path / "blocker").is_dir()

    def test_gap_violation_exit_and_manifest(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        # flat curve at x2 = -0.02 sits inside the default tolerance band
        write_config(cfg_path, h0_modes=[[1, 0.01, 0.0]], f_modes=[[0, 0.98, 0.0]])
        assert cmd_run(str(cfg_path)) == 2
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "gap_violation"
        assert manifest["error_time"] == 0.0
        csv_lines = (out / "timeseries.csv").read_text().strip().split("\n")
        assert csv_lines == [TIMESERIES_HEADER]

    def test_solver_failure_after_a_step_records_its_time(self, tmp_path, monkeypatch):
        # solve 1 is the initial evaluation, 2-4 the stages of step 1, 5 the
        # evaluation after it; solve 6, in step 2, fails
        calls = []

        def failing_solve(*args, **kwargs):
            calls.append(None)
            if len(calls) == 6:
                raise SolverDivergence("injected")
            return solve_head(*args, **kwargs)

        monkeypatch.setattr(evolution, "solve_head", failing_solve)
        cfg_path = tmp_path / "run.json"
        # two steps of the rule on this grid, so that step 2 exists
        write_config(cfg_path, t_end=0.4)
        assert cmd_run(str(cfg_path)) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["termination"] == "solver_failure"
        assert manifest["error"] == "injected"
        assert manifest["error_time"] == load_config(cfg_path)[0].dt

    def test_missing_config_exit(self, tmp_path, capsys):
        assert cmd_run(str(tmp_path / "nope.json")) == 1
        assert "error" in capsys.readouterr().err

    def test_non_integer_count_exit(self, tmp_path, capsys):
        # unchecked, a float grid size ends in a TypeError traceback, and
        # report_every = 1.5 reports only every third step (step % 1.5 == 0)
        cfg_path = tmp_path / "run.json"
        for bad in (dict(n1=64.0), dict(n2_plus=9.0), dict(report_every=1.5)):
            write_config(cfg_path, **bad)
            assert cmd_run(str(cfg_path)) == 1
            assert "error: invalid config" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_bool_or_infinite_float_exit(self, tmp_path, capsys):
        # unchecked, t_end = true ran to t = 1 and beta_plus = Infinity failed
        # only inside the run
        cfg_path = tmp_path / "run.json"
        for bad in (dict(t_end=True), dict(beta_plus=math.inf), dict(j_min=math.nan)):
            write_config(cfg_path, **bad)
            assert cmd_run(str(cfg_path)) == 1
            assert "error: invalid config" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


class TestCmdDispersion:
    def test_table_output(self, capsys):
        assert cmd_dispersion(1.0, 1.0, 3) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "k,sigma"
        k, sigma = lines[1].split(",")
        assert k == "1"
        assert float(sigma) == pytest.approx(-math.tanh(2.0), abs=1e-14)
        assert len(lines) == 4

    def test_beta_scaling(self, capsys):
        cmd_dispersion(1.0, 1.0, 1)
        base = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
        cmd_dispersion(2.0, 2.0, 1)
        doubled = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
        assert doubled == pytest.approx(2 * base, rel=1e-13)

    def test_usage_errors(self, capsys):
        assert cmd_dispersion(1.0, 1.0, 0) == 1
        assert cmd_dispersion(-1.0, 1.0, 3) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("betas", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_permeability(self, capsys, betas):
        assert main(["dispersion", *map(str, betas), "3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: permeabilities must be")


class TestCmdCheck:
    def test_default_config_passes(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        assert cmd_check(str(cfg_path)) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_invalid_config_exit(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, beta_plus=-2.0)
        assert cmd_check(str(cfg_path)) == 1

    def test_all_probes_pass_at_defaults(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{}")
        assert cmd_check(str(cfg_path)) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_cfl_probe_fails_without_the_exponential(self, tmp_path, capsys, monkeypatch):
        # zero linear rates turn the step into classical RK4, which the
        # probe's stiffest rates put past its stability limit
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{}")
        assert cmd_check(str(cfg_path)) == 0
        assert "PASS cfl: exponential step stable at dt_safety = 0.5, dt max|sigma_h| = 12.1 " \
            in capsys.readouterr().out
        etd_weights = evolution._etd_weights
        monkeypatch.setattr(evolution, "_etd_weights",
                            lambda rates, dt: etd_weights(np.zeros_like(rates), dt))
        assert cmd_check(str(cfg_path)) == 4
        assert "FAIL cfl" in capsys.readouterr().out

    def test_raising_check_fails_and_the_suite_goes_on(self, tmp_path, capsys, monkeypatch):
        def broken(config):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli_io, "_check_piola", broken)
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        assert cmd_check(str(cfg_path)) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "FAIL piola: raised RuntimeError: injected"
        assert [line.split()[0] for line in lines] == ["PASS", "FAIL", "PASS", "PASS", "PASS"]


class TestCmdConvergence:
    def test_orders_reported(self, tmp_path, capsys, monkeypatch):
        runs = []
        real_run = evolution.run

        def counted_run(*args, **kwargs):
            runs.append(None)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(evolution, "run", counted_run)
        cfg_path = tmp_path / "run.json"
        # five whole steps, the nearest whole number to t_end = pi / 4
        dt = evolution.SimConfig(n1=32, n2_plus=5, n2_minus=5, beta_plus=1.0,
                                 beta_minus=0.5).dt
        write_config(cfg_path, n2_plus=5, n2_minus=5, t_end=5 * dt,
                     h0_modes=[[1, 0.08, 0.0]], f_modes=[[2, 0.1, 0.0]])
        assert cmd_convergence(str(cfg_path)) == 0
        out = capsys.readouterr().out
        spatial = float(out.split("spatial order:")[1].split()[0])
        temporal = float(out.split("temporal order:")[1].split()[0])
        assert spatial >= 1.9
        assert temporal >= 3.8
        # three n2 levels and two step halvings: the coarsest run is shared
        assert len(runs) == 5

    def test_step_covering_t_end(self, tmp_path, capsys):
        # one step of the rule already covers t_end: the refinements must
        # still take 1, 2 and 4 steps, not the same single step
        cfg_path = tmp_path / "run.json"
        dt = evolution.SimConfig(n1=32, n2_plus=9, n2_minus=9, beta_plus=1.0,
                                 beta_minus=0.5).dt
        write_config(cfg_path, t_end=dt)
        assert cmd_convergence(str(cfg_path)) == 0
        out = capsys.readouterr().out
        assert "(1 -> 2 -> 4 steps)" in out
        assert float(out.split("temporal order:")[1].split()[0]) >= 3.8

    def test_rest_state_reported_exact(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n2_plus=5, n2_minus=5, t_end=0.1,
                     h0_modes=[], f_modes=[])
        assert cmd_convergence(str(cfg_path)) == 0
        out = capsys.readouterr().out
        assert out.count("exact") == 2

    def test_one_difference_at_roundoff_reported_unresolved(self):
        finals = [np.array([1e-3]), np.zeros(1), np.zeros(1)]
        assert (cli_io._order(finals, "levels", "refinement")
                == "order: unresolved (refinement differences 1.0e-03, 0.0e+00)")

    @pytest.mark.parametrize("error, code", [(None, 2), (DiffeoDegenerate, 2),
                                             (SolverDivergence, 3)])
    def test_terminated_run_exit_code(self, tmp_path, capsys, monkeypatch, error, code):
        # a refinement run that terminates ends the command with the run's
        # exit code and an error line, not a traceback; None is a real gap
        # violation, the others are raised by the head solve
        cfg_path = tmp_path / "run.json"
        if error is None:
            write_config(cfg_path, t_end=1.0, h0_modes=[[1, 0.01, 0.0]],
                         f_modes=[[0, 0.98, 0.0]])
        else:
            write_config(cfg_path, t_end=0.05)

            def failing_solve(*args, **kwargs):
                raise error("injected")

            monkeypatch.setattr(evolution, "solve_head", failing_solve)
        assert cmd_convergence(str(cfg_path)) == code
        captured = capsys.readouterr()
        assert "order" not in captured.out
        termination = {None: "gap_violation", DiffeoDegenerate: "diffeo_degenerate",
                       SolverDivergence: "solver_failure"}[error]
        assert captured.err.startswith("error: the run at n2 = (9, 9) with ")
        assert f"terminated with {termination}: " in captured.err

    def test_rejected_data_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n1=16, n2_plus=5, n2_minus=5, f_modes=[[0, -0.97, 0.0]])
        assert cmd_convergence(str(cfg_path)) == 1
        assert (capsys.readouterr().err
                == "error: permeability curve within gap_tol of the floor\n")

    def test_underresolved_warning(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, t_end=0.05,
                     h0_modes=[[1, 0.01, 0.0], [14, 0.005, 0.0]])
        assert cmd_convergence(str(cfg_path)) == 0
        assert "under-resolved" in capsys.readouterr().out

    # each field's own tail fraction: h0 all in mode 1 has none, whatever f
    # has, and two fields all in the tail give two warnings of 1, not one of 2
    @pytest.mark.parametrize("h0_modes, f_modes, expected", [
        ([[6, 0.01, 0.0]], [[6, 0.01, 0.0]], ["h0 has 1.00e+00", "f has 1.00e+00"]),
        ([[1, 0.01, 0.0]], [[6, 1e-6, 0.0]], ["f has 1.00e+00"]),
    ], ids=["both-in-tail", "only-f-in-tail"])
    def test_underresolved_warning_per_field(self, tmp_path, capsys, h0_modes, f_modes,
                                             expected):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n1=16, n2_plus=5, n2_minus=5, t_end=0.05,
                     h0_modes=h0_modes, f_modes=f_modes)
        assert cmd_convergence(str(cfg_path)) == 0
        warnings = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("warning: ")]
        assert [w.split(" of its energy")[0] for w in warnings] == \
            [f"warning: {e}" for e in expected]
        assert all(w.endswith("n1 may be under-resolved") for w in warnings)


class TestFormatsInStep:
    """Each format is defined once in code; these keep the docs and the
    records it is derived from in step with it."""

    def test_readme_config_block(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1]
        block = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        assert set(block) == cli_io._CONFIG_KEYS
        defaults = evolution.SimConfig()
        for key, value in block.items():
            if isinstance(value, (int, float)):
                assert value == getattr(defaults, key), key

    def test_energy_report_matches_csv_header(self):
        # script_E is the column scriptE
        assert ([f.name.replace("_", "") for f in fields(EnergyReport)]
                == [c.replace("_", "") for c in TIMESERIES_HEADER.split(",")])


class TestMain:
    def test_dispatch_dispersion(self, capsys):
        assert main(["dispersion", "1.0", "1.0", "2"]) == 0
        assert capsys.readouterr().out.startswith("k,sigma")

    def test_no_command_usage(self, capsys):
        assert main([]) == 1

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: muskat")

    @pytest.mark.parametrize("command", ["check", "convergence"])
    def test_dispatch_config_commands(self, monkeypatch, command):
        monkeypatch.setattr(cli_io, f"cmd_{command}", lambda path: f"{command} {path}")
        assert main([command, "run.json"]) == f"{command} run.json"

    def test_run_dispatch(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, t_end=0.1)
        assert main(["run", str(cfg_path)]) == 0

    # scipy is the direct oracle's only, in the test extra: neither a run nor
    # solve_head with its default solver may import it
    @staticmethod
    def scipy_loaded_by(script):
        """The scipy modules loaded once script has run in a fresh
        interpreter, which must exit 0."""
        script += ("\nimport sys\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(muskat.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_run_loads_no_scipy(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, t_end=0.1)
        script = ("from muskat import cli_io\n"
                  f"assert cli_io.main(['run', {str(cfg_path)!r}]) == 0\n")
        assert self.scipy_loaded_by(script) == "[]"

    def test_default_solve_loads_no_scipy(self):
        # the default is the run's Krylov path: it counts CG iterations,
        # where the direct oracle reports none
        script = (
            "import numpy as np\n"
            "from muskat.diffeo import (LOWER, UPPER, PermeabilityProfile, StripGrid,\n"
            "                           harmonic_extension, metric_terms)\n"
            "from muskat.pressure import solve_head\n"
            "from muskat.spectral_core import PeriodicField1D, nodes\n"
            "x = nodes(16)\n"
            "h, f = PeriodicField1D(0.05 * np.cos(x)), PeriodicField1D(0.1 * np.sin(x))\n"
            "profile = PermeabilityProfile(f, 1.0, 0.5)\n"
            "packs = [metric_terms(harmonic_extension(h, f, StripGrid(strip, 16, 5)), profile)\n"
            "         for strip in (UPPER, LOWER)]\n"
            "assert solve_head(*packs, h, profile).cg_iterations > 0\n")
        assert self.scipy_loaded_by(script) == "[]"
