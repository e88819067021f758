import json
import math

import numpy as np
import pytest

from muskat.cli_io import (
    ConfigError,
    Snapshot,
    TIMESERIES_HEADER,
    cmd_check,
    cmd_convergence,
    cmd_dispersion,
    cmd_run,
    load_config,
    main,
    read_snapshot,
    write_snapshot,
    write_timeseries_csv,
)
from muskat import evolution
from muskat.diagnostics import EnergyReport
from muskat.diffeo import PermeabilityProfile


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
        write_config(cfg_path)
        config, h0, f = load_config(cfg_path)
        assert config.n1 == 32
        assert config.beta_minus == 0.5
        assert config.output_dir == str(tmp_path / "out")
        x = h0.x1
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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_cg_solver_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, solver="cg")
        with pytest.raises(ConfigError, match="solver"):
            load_config(cfg_path)


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


class TestSnapshot:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(30)
        snap = Snapshot(
            t=0.25,
            h=rng.normal(size=16), f=rng.normal(size=16),
            p_plus=rng.normal(size=(16, 5)), p_minus=rng.normal(size=(16, 7)),
            w1_plus=rng.normal(size=(16, 5)), w2_plus=rng.normal(size=(16, 5)),
            w1_minus=rng.normal(size=(16, 7)), w2_minus=rng.normal(size=(16, 7)),
        )
        p1 = tmp_path / "a.mskt"
        p2 = tmp_path / "b.mskt"
        write_snapshot(p1, snap)
        back = read_snapshot(p1)
        assert back.t == snap.t
        assert np.array_equal(back.h, snap.h)
        assert np.array_equal(back.p_minus, snap.p_minus)
        write_snapshot(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_and_layout(self, tmp_path):
        snap = Snapshot(
            t=1.0, h=np.zeros(4), f=np.zeros(4),
            p_plus=np.zeros((4, 3)), p_minus=np.zeros((4, 3)),
            w1_plus=np.zeros((4, 3)), w2_plus=np.zeros((4, 3)),
            w1_minus=np.zeros((4, 3)), w2_minus=np.zeros((4, 3)),
        )
        path = tmp_path / "s.mskt"
        write_snapshot(path, snap)
        blob = path.read_bytes()
        assert blob[:4] == b"MSKT"
        # header 28 bytes + (2*4 + 6*12) doubles
        assert len(blob) == 28 + 8 * (8 + 72)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.mskt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_snapshot(path)

    # 4 x (3 + 5) levels: 28 header bytes + 8 * (2 * 4 + 3 * 4 * (3 + 5)) = 860
    @pytest.mark.parametrize("length, message", [
        (8, "header needs 28 bytes, file has 8"),
        (852, "header declares 860 bytes, file has 852"),
        (868, "header declares 860 bytes, file has 868"),
    ], ids=["short_header", "truncated", "padded"])
    def test_rejects_wrong_length(self, tmp_path, length, message):
        snap = Snapshot(
            t=0.5, h=np.zeros(4), f=np.zeros(4),
            p_plus=np.zeros((4, 3)), p_minus=np.zeros((4, 5)),
            w1_plus=np.zeros((4, 3)), w2_plus=np.zeros((4, 3)),
            w1_minus=np.zeros((4, 5)), w2_minus=np.zeros((4, 5)),
        )
        path = tmp_path / "s.mskt"
        write_snapshot(path, snap)
        path.write_bytes((path.read_bytes() + bytes(8))[:length])
        with pytest.raises(ValueError, match=message):
            read_snapshot(path)


class TestCmdRun:
    def test_completed_run_artifacts(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        assert cmd_run(str(cfg_path)) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "completed"
        assert set(manifest["files"]) == {
            "timeseries.csv", "snapshot_initial.mskt", "snapshot_final.mskt",
            "manifest.json"}
        for name in manifest["files"]:
            assert (out / name).exists()
        csv_lines = (out / "timeseries.csv").read_text().strip().split("\n")
        assert csv_lines[0] == TIMESERIES_HEADER
        assert len(csv_lines) > 2
        snap = read_snapshot(out / "snapshot_final.mskt")
        assert snap.p_plus.shape == (32, 9)

    def test_deterministic_replay(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            cfg_path = tmp_path / f"{name}.json"
            write_config(cfg_path, output_dir=name)
            assert cmd_run(str(cfg_path)) == 0
            outputs.append((tmp_path / name / "timeseries.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("solver", ["krylov", "direct"])
    def test_snapshots_need_no_solve_outside_run(self, tmp_path, monkeypatch, solver):
        calls = {"inside": 0, "outside": 0, "in_run": False}
        real_solve, real_run = evolution.solve_head, evolution.run

        def counted_solve(*args, **kwargs):
            calls["inside" if calls["in_run"] else "outside"] += 1
            return real_solve(*args, **kwargs)

        def flagged_run(*args, **kwargs):
            calls["in_run"] = True
            try:
                return real_run(*args, **kwargs)
            finally:
                calls["in_run"] = False

        monkeypatch.setattr(evolution, "solve_head", counted_solve)
        monkeypatch.setattr(evolution, "run", flagged_run)
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, solver=solver)
        assert cmd_run(str(cfg_path)) == 0
        assert calls["outside"] == 0
        assert calls["inside"] > 0

        # the snapshots equal those written from a fresh solve, byte for byte
        config, _, f = load_config(cfg_path)
        profile = PermeabilityProfile(f, config.beta_plus, config.beta_minus)
        for tag in ("initial", "final"):
            snap = read_snapshot(tmp_path / "out" / f"snapshot_{tag}.mskt")
            _, head, _, _ = evolution._evaluate(snap.h, profile, config)
            fresh = Snapshot(snap.t, snap.h, snap.f, head.p_plus.values,
                             head.p_minus.values, head.w1_plus.values,
                             head.w2_plus.values, head.w1_minus.values,
                             head.w2_minus.values)
            write_snapshot(tmp_path / f"fresh_{tag}.mskt", fresh)
            assert ((tmp_path / f"fresh_{tag}.mskt").read_bytes()
                    == (tmp_path / "out" / f"snapshot_{tag}.mskt").read_bytes())

    def test_gap_violation_exit_and_manifest(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        # flat curve at x2 = -0.02 sits inside the default tolerance band
        write_config(cfg_path, h0_modes=[[1, 0.01, 0.0]], f_modes=[[0, 0.98, 0.0]])
        assert cmd_run(str(cfg_path)) == 2
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "gap_violation"
        csv_lines = (out / "timeseries.csv").read_text().strip().split("\n")
        assert csv_lines == [TIMESERIES_HEADER]

    def test_missing_config_exit(self, tmp_path, capsys):
        assert cmd_run(str(tmp_path / "nope.json")) == 1
        assert "error" in capsys.readouterr().err


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


class TestCmdConvergence:
    def test_orders_reported(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        # eight whole base steps: t_end = 8 * dt_safety * dx1 / max(beta)
        write_config(cfg_path, n2_plus=5, n2_minus=5, t_end=math.pi / 4,
                     h0_modes=[[1, 0.08, 0.0]], f_modes=[[2, 0.1, 0.0]])
        assert cmd_convergence(str(cfg_path)) == 0
        out = capsys.readouterr().out
        spatial = float(out.split("spatial order:")[1].split()[0])
        temporal = float(out.split("temporal order:")[1].split()[0])
        assert spatial >= 1.9
        assert temporal >= 3.8

    def test_rest_state_reported_exact(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n2_plus=5, n2_minus=5, t_end=0.1,
                     h0_modes=[], f_modes=[])
        assert cmd_convergence(str(cfg_path)) == 0
        out = capsys.readouterr().out
        assert out.count("exact") == 2

    def test_underresolved_warning(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, t_end=0.05,
                     h0_modes=[[1, 0.01, 0.0], [14, 0.005, 0.0]])
        assert cmd_convergence(str(cfg_path)) == 0
        assert "under-resolved" in capsys.readouterr().out


class TestMain:
    def test_dispatch_dispersion(self, capsys):
        assert main(["dispersion", "1.0", "1.0", "2"]) == 0
        assert capsys.readouterr().out.startswith("k,sigma")

    def test_no_command_usage(self, capsys):
        assert main([]) == 1

    def test_run_dispatch(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, t_end=0.1)
        assert main(["run", str(cfg_path)]) == 0
