import math
from dataclasses import astuple

import numpy as np
import pytest

from muskat.diffeo import (
    LOWER,
    UPPER,
    PermeabilityProfile,
    StripGrid,
    harmonic_extension,
    metric_terms,
)
from muskat.diagnostics import (
    EnergyReport,
    decay_fit,
    dispersion_rate,
    dispersion_table,
    report,
)
from muskat.errors import InsufficientData
from muskat.evolution import SimConfig, SimState, run
from muskat.pressure import solve_head
from muskat.spectral_core import PeriodicField1D, nodes


def flat_profile(beta_plus=1.0, beta_minus=1.0, n=8):
    return PermeabilityProfile(PeriodicField1D.zeros(n), beta_plus, beta_minus)


class TestDispersionRate:
    def test_equal_betas_closed_form(self):
        # depth-2 single layer: sigma(k) = -beta k tanh(2k)
        prof = flat_profile()
        assert dispersion_rate(1, prof) == pytest.approx(-math.tanh(2.0), abs=1e-14)
        assert dispersion_rate(3, prof) == pytest.approx(-3 * math.tanh(6.0), abs=1e-13)

    def test_frozen_reference_value(self):
        assert dispersion_rate(1, flat_profile()) == pytest.approx(
            -0.9640275800758169, abs=1e-15)

    def test_deep_water_limit(self):
        # tanh saturates: sigma -> -beta k for large k
        prof = flat_profile(0.8, 0.8)
        assert dispersion_rate(50, prof) == pytest.approx(-0.8 * 50, rel=1e-12)

    def test_impermeable_lower_layer_limit(self):
        # beta- -> 0 turns the permeability line into a no-flux floor for the
        # upper layer of depth 1: sigma -> -beta+ k tanh(k)
        for k in (1, 2, 5):
            got = dispersion_rate(k, flat_profile(1.0, 1e-13))
            assert got == pytest.approx(-k * math.tanh(k), rel=1e-9)

    def test_very_permeable_lower_layer_limit(self):
        # beta- -> infinity pins the head at the permeability line:
        # sigma -> -beta+ k coth(k)
        for k in (1, 3):
            got = dispersion_rate(k, flat_profile(1.0, 1e13))
            assert got == pytest.approx(-k / math.tanh(k), rel=1e-9)

    def test_linear_scaling_in_common_beta_factor(self):
        a = dispersion_rate(2, flat_profile(1.0, 0.3))
        b = dispersion_rate(2, flat_profile(2.0, 0.6))
        assert b == pytest.approx(2 * a, rel=1e-13)

    def test_strictly_decreasing_in_k(self):
        prof = flat_profile(1.0, 0.2)
        rates = [dispersion_rate(k, prof) for k in range(1, 12)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_negative_for_all_modes(self):
        for bp, bm in ((1.0, 1.0), (0.1, 1.0), (1.0, 0.1)):
            assert all(dispersion_rate(k, flat_profile(bp, bm)) < 0
                       for k in range(1, 9))

    def test_mode_zero_rejected(self):
        with pytest.raises(ValueError):
            dispersion_rate(0, flat_profile())

    def test_curved_permeability_line_rejected(self):
        x = nodes(16)
        prof = PermeabilityProfile(PeriodicField1D(0.1 * np.cos(x)), 1.0, 1.0)
        with pytest.raises(ValueError):
            dispersion_rate(1, prof)

    def test_table(self):
        sigma = dispersion_table(5, flat_profile())
        assert list(sigma) == [dispersion_rate(k, flat_profile()) for k in range(1, 6)]
        assert np.all(sigma < 0)


class TestStripIntegral:
    """head.weights, the quadrature column of a head solution, integrates a
    stacked nodal field over both strips."""

    @staticmethod
    def weights(n1, n2_plus, n2_minus):
        h = f = PeriodicField1D.zeros(n1)
        profile = PermeabilityProfile(f, 1.0, 0.5)
        pack_p = metric_terms(harmonic_extension(h, f, StripGrid(UPPER, n1, n2_plus)), profile)
        pack_m = metric_terms(harmonic_extension(h, f, StripGrid(LOWER, n1, n2_minus)),
                              profile)
        weights = solve_head(pack_p, pack_m, h, profile).weights
        assert weights.shape == (n2_minus + n2_plus, 1)
        return weights

    def test_unit_area(self):
        # both strips have area 2 pi
        assert np.sum(self.weights(16, 9, 5) * np.ones((14, 16))) == pytest.approx(
            4 * np.pi, rel=1e-12)

    def test_cos_squared(self):
        x = nodes(64)
        vals = np.ones((17 + 9, 1)) * np.cos(x) ** 2
        assert np.sum(self.weights(64, 9, 17) * vals) == pytest.approx(2 * np.pi, rel=1e-12)


def small_solve(h_amp=0.05, f_amp=0.1, n1=32, n2=9, betas=(1.0, 0.5)):
    x = nodes(n1)
    h = PeriodicField1D(h_amp * np.cos(x))
    f = PeriodicField1D(f_amp * np.cos(x))
    profile = PermeabilityProfile(f, *betas)
    pack_p = metric_terms(harmonic_extension(h, f, StripGrid(UPPER, n1, n2)), profile)
    pack_m = metric_terms(harmonic_extension(h, f, StripGrid(LOWER, n1, n2)), profile)
    head = solve_head(pack_p, pack_m, h, profile, solver="direct")
    return h, head


class TestReport:
    def test_rest_state_report(self):
        h, head = small_solve(h_amp=0.0, f_amp=0.0)
        state = SimState(h=h)
        rep = report(state, head, 0.0)
        assert rep.l2_h == 0.0
        assert rep.h2_h == 0.0
        assert rep.script_E == 0.0
        assert rep.script_D == 0.0
        assert rep.rt_margin == pytest.approx(1.0, abs=1e-12)
        assert rep.l2_law_residual == 0.0
        assert math.isnan(rep.coupling_ratio)

    def test_norms_and_margin(self):
        h, head = small_solve()
        rep = report(SimState(h=h), head, 0.05 ** 2 * math.pi)
        assert rep.l2_h == pytest.approx(0.05 * math.sqrt(math.pi), rel=1e-12)
        assert rep.h2_h == pytest.approx(0.05 * 2 * math.sqrt(math.pi), rel=1e-12)
        assert rep.script_E == pytest.approx(0.05 ** 2 * math.pi, rel=1e-12)
        assert rep.script_D > 0
        assert rep.coupling_ratio > 0
        assert 0.8 <= rep.rt_margin <= 1.1
        assert all(math.isfinite(v) for v in astuple(rep))

    def test_dissipation_nonnegative(self):
        _, head = small_solve(h_amp=0.08, f_amp=0.05)
        assert head.dissipation > 0


class TestEnergyLaw:
    def test_l2_law_residual_small_run(self):
        config = SimConfig(n1=64, n2_plus=32, n2_minus=32, beta_plus=1.0,
                           beta_minus=0.5, t_end=0.5, report_every=4)
        x = nodes(64)
        traj = run(config, PeriodicField1D(0.05 * np.cos(x)),
                   PeriodicField1D(0.1 * np.cos(x)))
        worst = max(abs(r.l2_law_residual) for r in traj.reports)
        assert worst <= 4e-3

    def test_coupling_ratio_stays_bounded(self):
        config = SimConfig(n1=32, n2_plus=13, n2_minus=13, t_end=1.0,
                           report_every=4)
        traj = run(config, PeriodicField1D.from_modes(32, [(1, 0.01, 0.0)]),
                   PeriodicField1D.zeros(32))
        ratios = [r.coupling_ratio for r in traj.reports]
        assert max(ratios) <= 1.1 * ratios[0]


class TestDecayFit:
    @staticmethod
    def synthetic(ts, amp0, gamma):
        # exact exponential: |h''(t)| = amp0 * exp(-gamma t / 2)
        reports = []
        for t in ts:
            amp = amp0 * math.exp(-0.5 * gamma * t)
            reports.append(EnergyReport(
                t=t, l2_h=0.0, h2_h=0.0, h2p5_h=0.0,
                script_E=amp * amp, script_D=0.0, rt_margin=1.0,
                l2_law_residual=0.0, coupling_ratio=0.0))
        return reports

    def test_recovers_exact_rate(self):
        ts = np.linspace(0.0, 3.0, 25)
        gamma, r_sq = decay_fit(self.synthetic(ts, 0.3, 1.7))
        assert gamma == pytest.approx(1.7, abs=1e-10)
        assert r_sq == pytest.approx(1.0, abs=1e-12)

    def test_growing_signal_flags_negative_gamma(self):
        ts = np.linspace(0.0, 2.0, 15)
        gamma, _ = decay_fit(self.synthetic(ts, 0.1, -0.8))
        assert gamma == pytest.approx(-0.8, abs=1e-10)
        assert gamma < 0

    def test_insufficient_data(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InsufficientData):
            decay_fit(self.synthetic(ts, 0.1, 1.0))
