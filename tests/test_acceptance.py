"""Acceptance suite at reference desk scale (n1 = 128, n2 = 64 per strip).

Each criterion prints one PASS line with the measured numbers (run with
pytest -s to see them as they complete).  Expensive trajectories are shared
across criteria through module-scoped fixtures.
"""

import json
import math

import numpy as np
import pytest

from muskat.cli_io import TIMESERIES_HEADER, cmd_run
from muskat.diffeo import (
    LOWER,
    UPPER,
    PermeabilityProfile,
    StripGrid,
    harmonic_extension,
    metric_terms,
    piola_divergence,
    vertical_derivative,
    vertical_derivative_exact,
)
from muskat.diagnostics import decay_fit, dispersion_rate
from muskat.evolution import Flow, SimConfig, TERMINATION_COMPLETED, run
from muskat.pressure import solve_head
from muskat.spectral_core import PeriodicField1D, nodes, sobolev_norm

N1 = 128
N2 = 64


def x_nodes(n=N1):
    return nodes(n)


def cos_field(k=1, amp=1.0, n=N1):
    return PeriodicField1D(amp * np.cos(k * x_nodes(n)))


def mode_amplitude(h_values, k):
    return np.abs(np.fft.rfft(h_values)[k]) / h_values.size


def ok(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def law_runs():
    """Energy-law run of criterion 3 at the reference and two halved grids."""
    out = {}
    for n2 in (33, 64, 65):
        config = SimConfig(n1=N1, n2_plus=n2, n2_minus=n2, beta_plus=1.0,
                           beta_minus=0.5, t_end=1.0, report_every=5)
        traj = run(config, cos_field(amp=0.05), cos_field(amp=0.1))
        assert traj.termination == TERMINATION_COMPLETED
        out[n2] = traj
    return out


@pytest.fixture(scope="module")
def decay_run():
    """Small-data decay run of criterion 4 over t in [0, 5]."""
    h0 = cos_field(amp=0.014)
    assert sobolev_norm(h0, 2.0) <= 0.05
    config = SimConfig(n1=N1, n2_plus=N2, n2_minus=N2, beta_plus=1.0,
                       beta_minus=1.0, t_end=5.0, report_every=2)
    traj = run(config, h0, PeriodicField1D.zeros(N1))
    assert traj.termination == TERMINATION_COMPLETED
    return traj


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_rest_state_exactness():
    for f_amp in (0.0, 0.2):
        f = cos_field(amp=f_amp)
        config = SimConfig(n1=N1, n2_plus=N2, n2_minus=N2, beta_plus=1.0,
                           beta_minus=1.0, t_end=1.0, report_every=10)
        flow = Flow(config, f)
        traj = run(config, PeriodicField1D.zeros(N1), f)
        assert traj.termination == TERMINATION_COMPLETED
        w_inf = 0.0
        h_inf = 0.0
        for state in traj.states:
            h_inf = max(h_inf, float(np.max(np.abs(state.h.values))))
            head = flow.head(state.h.values)
            w_inf = max(w_inf, max(float(np.max(np.abs(w))) for w in (head.w1, head.w2)))
        assert w_inf <= 1e-9
        assert h_inf == 0.0
        ok(1, f"f amplitude {f_amp}: max|w| = {w_inf:.2e}, h identically zero")


def measured_decay_rate(beta_plus, beta_minus, k, t_end):
    config = SimConfig(n1=N1, n2_plus=N2, n2_minus=N2, beta_plus=beta_plus,
                       beta_minus=beta_minus, t_end=t_end, report_every=1)
    traj = run(config, cos_field(k=k, amp=1e-4), PeriodicField1D.zeros(N1))
    assert traj.termination == TERMINATION_COMPLETED
    ts = np.array([s.t for s in traj.states])
    amps = np.array([mode_amplitude(s.h.values, k) for s in traj.states])
    assert amps.min() > 0
    slope = np.polyfit(ts, np.log(amps), 1)[0]
    return float(slope)


def test_criterion_2_linear_dispersion():
    profile = PermeabilityProfile(PeriodicField1D.zeros(N1), 1.0, 1.0)
    for k in (1, 2, 3, 4):
        sigma = -k * math.tanh(2 * k)
        assert dispersion_rate(k, profile) == pytest.approx(sigma, rel=1e-12)
        rate = measured_decay_rate(1.0, 1.0, k, t_end=min(1.0, 2.0 / abs(sigma)))
        assert rate == pytest.approx(sigma, rel=1e-2)
        ok(2, f"beta (1,1) k={k}: measured {rate:.6f} vs -k tanh 2k {sigma:.6f} "
              f"({abs(rate / sigma - 1):.2e} rel)")
    for beta_plus, beta_minus in ((1.0, 0.1), (0.1, 1.0)):
        prof = PermeabilityProfile(PeriodicField1D.zeros(N1), beta_plus, beta_minus)
        sigma = dispersion_rate(1, prof)
        rate = measured_decay_rate(beta_plus, beta_minus, 1, t_end=1.0)
        assert rate == pytest.approx(sigma, rel=1e-2)
        ok(2, f"beta ({beta_plus},{beta_minus}) k=1: measured {rate:.6f} vs "
              f"oracle {sigma:.6f} ({abs(rate / sigma - 1):.2e} rel)")


def test_criterion_3_l2_energy_law(law_runs):
    worst = {n2: max(abs(r.l2_law_residual) for r in traj.reports)
             for n2, traj in law_runs.items()}
    assert worst[64] <= 1e-3
    order = math.log2(worst[33] / worst[65])
    assert order >= 1.9
    ok(3, f"relative residual {worst[64]:.3e} at n2=64 (tol 1e-3); "
          f"doubling order {order:.2f} (n2 33 -> 65)")


def test_criterion_4_global_decay(decay_run):
    energies = [r.script_E for r in decay_run.reports]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))
    gamma, r_sq = decay_fit(decay_run.reports)
    assert gamma > 0
    assert r_sq >= 0.999
    rt_min = min(r.rt_margin for r in decay_run.reports)
    assert rt_min >= 0.9
    ok(4, f"script E monotone over [0,5]; gamma_fit = {gamma:.4f} > 0, "
          f"r^2 = {r_sq:.6f}, min rt_margin = {rt_min:.4f}")


def test_criterion_5_conservation(law_runs):
    traj = law_runs[64]
    assert traj.max_abs_mean_h <= 1e-10
    assert traj.max_abs_top_flux <= 1e-8
    ok(5, f"per-step ledgers on criterion-3 run: max|mean h| = "
          f"{traj.max_abs_mean_h:.2e}, max|total top flux| = "
          f"{traj.max_abs_top_flux:.2e}")


def test_criterion_6_coupling_inequality(decay_run):
    ratios = [r.coupling_ratio for r in decay_run.reports]
    assert all(np.isfinite(ratios))
    bound = max(ratios)
    assert bound <= 1.1 * ratios[0]
    ok(6, f"coupling ratio |h''|_0.5 / ||w''|| bounded by {bound:.4f} "
          f"(growth {100 * (bound / ratios[0] - 1):+.3f}% over the run)")


def test_criterion_7_discrete_piola():
    # the identity is a property of the strip map's gradient (d1, d2)
    h = cos_field(amp=0.1)
    f = PeriodicField1D(0.1 * np.sin(x_nodes()))
    same_stencil = 0.0
    analytic = {}
    for n2 in (17, 33, 65):
        for strip in (UPPER, LOWER):
            grid = StripGrid(strip, N1, n2)
            shift = harmonic_extension(h, f, grid)
            d2 = vertical_derivative(shift.values, grid.dx2)
            same_stencil = max(same_stencil,
                               float(np.max(np.abs(piola_divergence(shift, d2)))))
            d2_exact = vertical_derivative_exact(h, f, grid).values
            analytic[n2] = max(analytic.get(n2, 0.0),
                               float(np.max(np.abs(piola_divergence(shift, d2_exact)))))
    assert same_stencil <= 1e-10
    order1 = math.log2(analytic[17] / analytic[33])
    order2 = math.log2(analytic[33] / analytic[65])
    assert order1 >= 1.9
    assert order2 >= 1.9
    ok(7, f"same-stencil divergence at roundoff ({same_stencil:.1e}); "
          f"analytic-gradient residual orders {order1:.2f}, {order2:.2f}")


def test_criterion_8_picard_cross_check():
    h = cos_field(amp=0.005)
    assert sobolev_norm(h, 2.0) <= 0.02
    f = cos_field(k=2, amp=0.02)
    profile = PermeabilityProfile(f, 1.0, 0.5)
    pack_p = metric_terms(harmonic_extension(h, f, StripGrid(UPPER, N1, N2)), profile)
    pack_m = metric_terms(harmonic_extension(h, f, StripGrid(LOWER, N1, N2)), profile)
    direct = solve_head(pack_p, pack_m, h, profile, solver="direct")
    fixed = solve_head(pack_p, pack_m, h, profile, solver="picard")
    diff = float(np.max(np.abs(direct.p - fixed.p)))
    assert diff <= 1e-8
    ok(8, f"fixed-point vs direct head: max difference {diff:.2e} (tol 1e-8)")


def test_criterion_9_failure_semantics(tmp_path):
    config = {
        "n1": N1, "n2_plus": N2, "n2_minus": N2,
        "beta_plus": 1.0, "beta_minus": 1.0, "t_end": 1.0,
        "h0_modes": [[1, 0.01, 0.0]],
        "f_modes": [[0, 0.98, 0.0]],  # curve inside the gap tolerance band
        "output_dir": "out",
    }
    cfg_path = tmp_path / "gap.json"
    cfg_path.write_text(json.dumps(config))
    assert cmd_run(str(cfg_path)) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["termination"] == "gap_violation"
    csv_lines = (tmp_path / "out" / "timeseries.csv").read_text().strip().split("\n")
    assert csv_lines == [TIMESERIES_HEADER]
    ok(9, "gap-violating data exits 2 with gap_violation manifest and an "
          "uncorrupted (header-only) timeseries")
