import decimal
import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muskat import diagnostics, evolution, pressure
from muskat.diffeo import LOWER, UPPER, harmonic_extension
from muskat.errors import GapViolation, SolverDivergence
from muskat.evolution import (
    MAX_PERMEABILITY_CONTRAST,
    Flow,
    SimConfig,
    SimState,
    TERMINATION_COMPLETED,
    TERMINATION_DEGENERATE,
    TERMINATION_GAP,
    TERMINATION_SOLVER,
    run,
    step,
)
from muskat.spectral_core import PeriodicField1D, nodes

COARSE = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.5)


def cos_field(n, k=1, amp=1.0):
    x = nodes(n)
    return PeriodicField1D(amp * np.cos(k * x))


def flow_for(config, f=None):
    return Flow(config, f if f is not None else PeriodicField1D.zeros(config.n1))


class TestRhs:
    def test_rest_state(self):
        out = flow_for(COARSE).head(np.zeros(32)).gamma_trace_w2
        assert np.max(np.abs(out)) <= 1e-12

    def test_flat_interface_steady_for_any_curve(self):
        out = flow_for(COARSE, cos_field(32, amp=0.2)).head(np.zeros(32)).gamma_trace_w2
        assert np.max(np.abs(out)) <= 1e-12

    def test_small_mode_matches_linear_rate(self):
        # depth-2 uniform layer: rhs ~ -beta tanh(2) * h for k = 1
        config = SimConfig(n1=64, n2_plus=32, n2_minus=32)
        h = cos_field(64, amp=1e-4)
        out = flow_for(config).head(h.values).gamma_trace_w2
        expected = -math.tanh(2.0) * h.values
        assert np.max(np.abs(out - expected)) <= 0.01 * np.max(np.abs(expected))

    def test_mean_projected(self):
        # the conservative recovery keeps the trace's mean at roundoff
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9)
        h = cos_field(32, amp=0.05)
        out = flow_for(config).head(h.values).gamma_trace_w2
        assert abs(np.mean(out)) <= 1e-15


class TestStep:
    def test_rest_state_fixed_point(self):
        state = SimState(h=PeriodicField1D.zeros(32))
        flow = flow_for(COARSE)
        new, _ = step(state, flow, 0.01, flow.head(state.h.values))
        assert np.max(np.abs(new.h.values)) <= 1e-12
        assert new.t == pytest.approx(0.01)
        assert new.step_count == 1

    def test_nonpositive_step_rejected(self):
        state = SimState(h=cos_field(32, amp=1e-3))
        flow = flow_for(COARSE)
        head = flow.head(state.h.values)
        for dt in (0.0, -0.01, math.nan):
            with pytest.raises(ValueError, match="dt must be positive"):
                step(state, flow, dt, head)

    def test_rk4_temporal_order(self):
        # Richardson: error(dt) / error(dt/2) ~ 2^4 over a fixed interval
        flow = flow_for(SimConfig(n1=32, n2_plus=9, n2_minus=9))
        h0 = cos_field(32, amp=1e-3)

        def advance(n_steps, dt):
            s = SimState(h=h0)
            for _ in range(n_steps):
                s, _ = step(s, flow, dt, flow.head(s.h.values))
            return s.h.values

        dt = 0.2
        a = advance(1, dt)
        b = advance(2, dt / 2)
        c = advance(4, dt / 4)
        ratio = np.max(np.abs(a - b)) / np.max(np.abs(b - c))
        assert 10.0 <= ratio <= 24.0

    @pytest.mark.parametrize("k", range(1, 16))
    def test_dissipation_exact_on_a_small_mode(self, k):
        # a 1e-6 single mode over a flat curve dissipates D0 exp(2 sigma_h(k) s):
        # the step integrates each mode's share at the mode's own rate, which
        # is exact in a step short enough that the exponent stays above the
        # floor
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, beta_plus=1.0, beta_minus=0.5)
        rate = 2.0 * pressure.flat_inverse(32, 9, 9, 1.0, 0.5).sigma_h.real[k]
        dt = min(config.dt, evolution.DISSIPATION_EXPONENT_FLOOR / rate)
        flow = flow_for(config)
        h = PeriodicField1D.from_modes(32, [(k, 1e-6, 0.0)])
        head = flow.head(h.values)
        new, _ = step(SimState(h=h), flow, dt, head)
        assert new.diss_l2_integral == pytest.approx(
            head.dissipation * math.expm1(rate * dt) / rate, rel=1e-9, abs=0.0)

    def test_mean_conserved_over_many_steps(self):
        flow = flow_for(SimConfig(n1=16, n2_plus=5, n2_minus=5))
        s = SimState(h=cos_field(16, amp=0.05))
        for _ in range(300):
            s, _ = step(s, flow, flow.config.dt, flow.head(s.h.values))
        assert abs(np.mean(s.h.values)) <= 1e-10
        assert abs(s.mean_drift) <= 1e-10

    def test_gap_violation_raised(self):
        # a high flat permeability curve leaves the (steady) interface inside
        # the tolerance band, so the post-step gap check must fire
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, gap_tol=0.2)
        state = SimState(h=PeriodicField1D(np.zeros(32)))
        flow = flow_for(config, PeriodicField1D(np.full(32, 0.85)))
        with pytest.raises(GapViolation):
            step(state, flow, config.dt, flow.head(state.h.values))


class TestRun:
    def test_zero_data_constant_trajectory(self):
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3, report_every=2)
        traj = run(config, PeriodicField1D.zeros(32), PeriodicField1D.zeros(32))
        assert traj.termination == TERMINATION_COMPLETED
        assert all(r.l2_h == 0.0 for r in traj.reports)
        assert all(r.rt_margin == pytest.approx(1.0, abs=1e-12) for r in traj.reports)

    def test_immediate_gap_violation(self):
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3)
        h0 = cos_field(32, amp=0.01)
        f = PeriodicField1D(np.full(32, 0.98))  # curve at -0.02, above h0 - gap
        traj = run(config, h0, f)
        assert traj.termination == TERMINATION_GAP
        assert traj.error_time == 0.0
        assert traj.states == [] and traj.reports == []

    def test_degenerate_strip_map_terminates(self):
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3, j_min=0.9)
        traj = run(config, cos_field(32, amp=0.3), PeriodicField1D.zeros(32))
        assert traj.termination == TERMINATION_DEGENERATE
        assert traj.error
        assert traj.error_time == 0.0
        assert traj.states == [] and traj.reports == []

    @pytest.mark.parametrize("h0_amp, message", [
        (0.0, "strip map degenerate on lower strip: min J = 0.5 <= j_min = 0.6"),
        # both maps degenerate: the upper strip is reported, as each
        # evaluation maps it first
        (0.45, "strip map degenerate on upper strip: min J = 0.1918 <= j_min = 0.6"),
    ])
    def test_degenerate_lower_strip_map_terminates(self, h0_amp, message):
        # f = -0.5 gives the lower map J = 0.5 everywhere, the upper 1.5 at h = 0
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3, j_min=0.6)
        traj = run(config, cos_field(32, k=3, amp=-h0_amp), PeriodicField1D(np.full(32, -0.5)))
        assert traj.termination == TERMINATION_DEGENERATE
        assert traj.error == message
        assert traj.error_time == 0.0
        assert traj.states == [] and traj.reports == [] and traj.head_solves == 0

    def test_lower_strip_extended_once_per_run(self, monkeypatch):
        # the lower map's traces are 0 and f: one extension serves the run
        strips = []

        def counting_extension(h, f, grid):
            strips.append(grid.strip)
            return harmonic_extension(h, f, grid)

        monkeypatch.setattr(evolution, "harmonic_extension", counting_extension)
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3)
        traj = run(config, cos_field(32, amp=0.05), cos_field(32, k=2, amp=0.1))
        assert traj.termination == TERMINATION_COMPLETED and traj.head_solves > 5
        assert strips.count(LOWER) == 1
        assert strips.count(UPPER) == traj.head_solves

    def test_solver_failure_terminates(self, monkeypatch):
        monkeypatch.setattr(pressure, "MAX_ITERATIONS", 1)
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3)
        traj = run(config, cos_field(32, amp=0.05), PeriodicField1D.zeros(32))
        assert traj.termination == TERMINATION_SOLVER
        assert "stalled" in traj.error
        assert traj.error_time == 0.0
        assert traj.states == [] and traj.reports == []

    def test_picard_failure_terminates_as_a_solver_failure(self, monkeypatch):
        # a Picard solve that gives up raises the CG stall's error class, so
        # the run ends solver_failure through the same termination entry
        def picard_solve(*args, guess=None, **kwargs):
            return pressure.solve_head(*args, solver="picard", **kwargs)

        monkeypatch.setattr(evolution, "solve_head", picard_solve)
        monkeypatch.setattr(pressure, "MAX_ITERATIONS", 2)
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3)
        traj = run(config, cos_field(32, amp=0.05), PeriodicField1D.zeros(32))
        assert traj.termination == TERMINATION_SOLVER
        assert traj.error == "fixed-point head iteration not converged in 2 steps"
        assert traj.error_time == 0.0

    def test_failure_inside_a_step_keeps_last_state(self, monkeypatch):
        # solve 1 is the initial evaluation, 2-4 the stages of step 1, 5 the
        # evaluation after it; solve 6, in step 2, fails
        calls = []

        def failing_solve(*args, **kwargs):
            calls.append(None)
            if len(calls) == 6:
                raise SolverDivergence("injected")
            return pressure.solve_head(*args, **kwargs)

        monkeypatch.setattr(evolution, "solve_head", failing_solve)
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3)
        traj = run(config, cos_field(32, amp=0.05), PeriodicField1D.zeros(32))
        assert traj.termination == TERMINATION_SOLVER
        assert traj.error == "injected"
        assert traj.error_time == pytest.approx(config.dt)
        assert [s.t for s in traj.states] == [0.0, traj.error_time]
        assert [r.t for r in traj.reports] == [0.0, traj.error_time]

    def test_warm_start_leaves_the_run_unchanged(self, monkeypatch):
        # every solve of a run but the first starts CG from a neighbouring
        # head; started from zero, the run ends within the solver's precision
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3)
        h0, f = cos_field(32, amp=0.08), cos_field(32, k=2, amp=0.1)
        warm = run(config, h0, f)

        def cold_solve(*args, guess=None, **kwargs):
            return pressure.solve_head(*args, **kwargs)

        monkeypatch.setattr(evolution, "solve_head", cold_solve)
        cold = run(config, h0, f)
        assert warm.termination == cold.termination == TERMINATION_COMPLETED
        assert len(warm.states) == len(cold.states) > 2
        assert warm.head_solves == cold.head_solves == 4 * len(warm.states) - 3
        assert warm.cg_iterations < cold.cg_iterations
        assert np.max(np.abs(warm.states[-1].h.values - cold.states[-1].h.values)) <= 1e-10

    def test_high_contrast_run_completes(self):
        # the largest contrast a run accepts, at the reference grid
        config = SimConfig(n1=128, n2_plus=64, n2_minus=64, beta_plus=1.0,
                           beta_minus=evolution.MAX_PERMEABILITY_CONTRAST, t_end=0.1)
        traj = run(config, cos_field(128, amp=0.05), cos_field(128, k=2, amp=0.1))
        assert traj.termination == TERMINATION_COMPLETED
        assert traj.states[-1].t == pytest.approx(0.1)

    def test_decay_and_rt_margin(self):
        config = SimConfig(n1=32, n2_plus=13, n2_minus=13, t_end=1.0, report_every=4)
        traj = run(config, cos_field(32, amp=0.05), PeriodicField1D.zeros(32))
        assert traj.termination == TERMINATION_COMPLETED
        e = [r.script_E for r in traj.reports]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(e, e[1:]))
        assert min(r.rt_margin for r in traj.reports) >= 0.9

    def test_nyquist_mode_removed(self):
        # the Nyquist mode has flat rate sigma_h = 0: seeded, it would stay
        # at its amplitude for ever; the run removes it at t = 0 and after
        # every step, as it removes the mean
        config = SimConfig(n1=64, n2_plus=16, n2_minus=16, beta_plus=1.0, beta_minus=2.0,
                           t_end=0.5)
        h0 = PeriodicField1D.from_modes(64, [(1, 0.05, 0.0), (3, 0.0125, 0.0), (32, 1e-6, 0.0)])
        traj = run(config, h0, cos_field(64, k=2, amp=0.1))
        assert traj.termination == TERMINATION_COMPLETED
        assert len(traj.states) > 2
        for state in traj.states:
            assert abs(state.h.coeffs[32]) <= 1e-15, state.t
            # the other modes are kept
            assert abs(state.h.coeffs[1]) >= 0.01

    def test_mean_and_flux_ledgers(self):
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.5)
        traj = run(config, cos_field(32, amp=0.05), cos_field(32, amp=0.1))
        assert traj.max_abs_mean_h <= 1e-10
        assert traj.max_abs_top_flux <= 1e-8

    def test_mean_ledger_sees_a_drift(self, monkeypatch):
        # a trace offset by 1e-6 moves the mean at 1e-6 per unit time; the
        # projection removes it from h, and the ledger must still see it
        solve = evolution.solve_head

        def offset(*args, **kwargs):
            head = solve(*args, **kwargs)
            return replace(head, gamma_trace_w2=head.gamma_trace_w2 + 1e-6)

        monkeypatch.setattr(evolution, "solve_head", offset)
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3)
        traj = run(config, cos_field(32, amp=0.05), cos_field(32, amp=0.1))
        assert traj.termination == TERMINATION_COMPLETED
        assert traj.max_abs_mean_h == pytest.approx(1e-6 * 0.3, rel=1e-3)

    def test_initial_gap_builds_no_flat_inverse(self):
        pressure.flat_inverse.cache_clear()
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, t_end=0.3)
        traj = run(config, cos_field(32, amp=0.01), PeriodicField1D(np.full(32, 0.98)))
        assert traj.termination == TERMINATION_GAP
        assert traj.head_solves == 0
        assert pressure.flat_inverse.cache_info().currsize == 0

    def test_temporal_self_convergence(self):
        base = dict(n1=32, n2_plus=9, n2_minus=9, t_end=0.4, report_every=10 ** 6)
        h0 = cos_field(32, amp=0.05)
        f = PeriodicField1D.zeros(32)
        finals = []
        for safety in (0.8, 0.4, 0.2):
            traj = run(SimConfig(dt_safety=safety, **base), h0, f)
            finals.append(traj.states[-1].h.values)
        order = math.log2(np.max(np.abs(finals[0] - finals[1]))
                          / np.max(np.abs(finals[1] - finals[2])))
        assert order >= 3.5

    def test_spatial_self_convergence(self):
        h0 = cos_field(32, amp=0.08)
        f = cos_field(32, k=2, amp=0.1)
        finals = []
        for n2 in (9, 17, 33):
            config = SimConfig(n1=32, n2_plus=n2, n2_minus=n2, t_end=0.4,
                               report_every=10 ** 6)
            traj = run(config, h0, f)
            finals.append(traj.states[-1].h.values)
        order = math.log2(np.max(np.abs(finals[0] - finals[1]))
                          / np.max(np.abs(finals[1] - finals[2])))
        assert order >= 1.9

    def test_resolution_guard(self):
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9)
        with pytest.raises(ValueError):
            run(config, PeriodicField1D.zeros(64), PeriodicField1D.zeros(32))

    def test_curve_too_close_to_floor_rejected(self):
        config = SimConfig(n1=32, n2_plus=9, n2_minus=9, gap_tol=0.05)
        f = PeriodicField1D(np.full(32, -0.97))
        with pytest.raises(ValueError):
            run(config, PeriodicField1D.zeros(32), f)


def series_over_cube(poly, exp_poly, terms=16):
    """Taylor coefficients of (poly(c) + exp(c) exp_poly(c)) / c^3 at c = 0,
    exact; poly and exp_poly list polynomial coefficients from c^0 up."""
    def numerator(n):
        head = Fraction(poly[n]) if n < len(poly) else Fraction(0)
        return head + sum(Fraction(r, math.factorial(n - j))
                          for j, r in enumerate(exp_poly) if j <= n)
    assert all(numerator(n) == 0 for n in range(3))
    return [numerator(n) for n in range(3, 3 + terms)]


# Taylor coefficients at c = 0 of Q / dt = (exp(c/2) - 1) / c and of f1, f2,
# f3 over dt
WEIGHT_SERIES = [
    [Fraction(1, 2 ** n * math.factorial(n)) for n in range(1, 17)],
    series_over_cube([-4, -1], [4, -3, 1]),
    series_over_cube([2, 1], [-2, 1]),
    series_over_cube([-4, -3, -1], [4, -1]),
]


def closed_weights(c):
    """Q, f1, f2, f3 over dt in closed form, for c away from 0."""
    e = math.exp(c)
    return [math.expm1(c / 2) / c,
            (-4 - c + e * (4 - 3 * c + c ** 2)) / c ** 3,
            (2 + c + e * (c - 2)) / c ** 3,
            (-4 - 3 * c - c ** 2 + e * (4 - c)) / c ** 3]


class TestEtdWeights:
    """The ETDRK4 coefficients as contour means (Kassam & Trefethen 2005)
    against their closed forms away from c = dt L = 0 and their Taylor
    series near it."""

    @staticmethod
    def weights_over_dt(c, dt):
        _, e, e2, *weights = evolution._etd_weights(np.array([c / dt]), dt)
        # c / dt times dt is c to a few ulp of c
        assert e[0] == pytest.approx(math.exp(c), rel=1e-13)
        assert e2[0] == pytest.approx(math.exp(c / 2), rel=1e-13)
        return [w[0] / dt for w in weights]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c=st.one_of(st.floats(-300.0, -0.1), st.floats(0.1, 3.0)),
           dt=st.floats(1e-3, 10.0))
    def test_weights_match_closed_forms(self, c, dt):
        # f1 changes sign near c = -4.4: the absolute bound covers its root
        assert self.weights_over_dt(c, dt) == pytest.approx(closed_weights(c), rel=1e-9,
                                                              abs=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c=st.floats(-0.1, 0.1), dt=st.floats(1e-3, 10.0))
    @example(c=0.0, dt=1.0)
    def test_weights_match_taylor_series_near_zero(self, c, dt):
        # c = 0 is the rate of the mean and of the Nyquist mode: there the
        # weights are classical RK4's, 1/2, 1/6, 1/6 and 1/6
        series = [sum(float(a) * c ** n for n, a in enumerate(coeffs))
                  for coeffs in WEIGHT_SERIES]
        assert self.weights_over_dt(c, dt) == pytest.approx(series, rel=1e-12)

    def test_half_step_propagator_is_root_of_full_step(self):
        rates = pressure.flat_inverse(32, 9, 9, 1.0, 0.5).sigma_h.real
        full = evolution._etd_weights(rates, 0.1)
        half = evolution._etd_weights(rates, 0.05)
        assert half[1] == pytest.approx(np.sqrt(full[1]), rel=1e-14)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(betas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
           n2=st.tuples(st.integers(5, 12), st.integers(5, 12)),
           k=st.integers(1, 15), factor=st.floats(1.0, 20.0))
    def test_step_is_exact_on_a_small_mode(self, betas, n2, k, factor):
        # a 1e-8 single mode over a flat curve evolves by the flat rate: one
        # step of up to 20 times classical RK4's stable step on this grid
        # multiplies it by exp(sigma_h(k) dt).  A mode that falls below 1e-6
        # of itself is held to the roundoff of a unit amplitude instead.
        config = SimConfig(n1=32, n2_plus=n2[0], n2_minus=n2[1], beta_plus=betas[0],
                           beta_minus=betas[1])
        sigma = pressure.flat_inverse(32, n2[0], n2[1], *betas).sigma_h.real
        dt = factor * 2.78529356340529 / np.max(np.abs(sigma))
        h = PeriodicField1D.from_modes(32, [(k, 1e-8, 0.0)])
        flow = flow_for(config)
        new, _ = step(SimState(h=h), flow, dt, flow.head(h.values))
        ratio = new.h.coeffs / h.coeffs[k]
        assert ratio[k].real == pytest.approx(math.exp(sigma[k] * dt), rel=1e-9, abs=1e-15)
        assert abs(ratio[k].imag) <= 1e-15


def moments_closed(c):
    """m_j = int_0^1 exp(c u) u^j du, j = 0, 1, 2, in closed form, evaluated
    in 50-digit decimal arithmetic so that no digit is lost near c = 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        c = decimal.Decimal(c)
        e = c.exp()
        return [float(m) for m in ((e - 1) / c,
                                   (e * (c - 1) + 1) / c ** 2,
                                   (e * (c * c - 2 * c + 2) - 2) / c ** 3)]


class TestDissipationWeights:
    """ETDRK4's final combination, time reversed, is the product rule of
    the dissipation integral: (f3, 4 f2, f1) integrate exp(c u) times a
    quadratic in u on [0, 1] exactly from its values at 0, 1/2 and 1."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c=st.floats(-300.0, -1e-3), dt=st.floats(1e-3, 10.0),
           coeffs=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3))
    def test_exact_for_exponential_times_quadratic(self, c, dt, coeffs):
        *_, f1, f2, f3 = evolution._etd_weights(np.array([c / dt]), dt)
        weights = np.concatenate([f3, 4.0 * f2, f1]) / dt
        quadratic = np.polynomial.Polynomial(coeffs)
        rule = float(weights @ quadratic(np.array([0.0, 0.5, 1.0])))
        assert rule == pytest.approx(float(np.dot(coeffs, moments_closed(c))), rel=1e-9)


class TestConfig:
    def test_dt_formula(self):
        config = SimConfig(n1=128, beta_plus=2.0, beta_minus=0.5, dt_safety=0.5)
        sigma = pressure.flat_inverse(128, 64, 64, 2.0, 0.5).sigma_h
        assert config.dt == pytest.approx(0.5 * 3.0 / (8.0 * abs(sigma[1])), rel=1e-14)
        # the slowest flat rate, k = 1, is the two-layer rate to 3e-5
        assert config.dt == pytest.approx(0.5 * 3.0 / (8.0 * 1.66290), rel=1e-5)
        # not the stiffest rate, k = 37, which decays inside the upper strip
        assert config.dt * np.max(np.abs(sigma)) == pytest.approx(6.45594, rel=1e-5)
        # rates scale with a common factor of both betas, the step inversely
        halved = SimConfig(n1=128, beta_plus=1.0, beta_minus=0.25, dt_safety=0.5)
        assert halved.dt == pytest.approx(2.0 * config.dt, rel=1e-12)
        # and with dt_safety
        assert replace(config, dt_safety=0.25).dt == pytest.approx(0.5 * config.dt, rel=1e-14)

    @pytest.mark.parametrize("bad", [
        dict(n1=13), dict(n2_plus=2), dict(beta_plus=0.0), dict(dt_safety=0.0),
        dict(dt_safety=1.5), dict(t_end=-1.0), dict(gap_tol=0.0),
        dict(j_min=1.5), dict(report_every=0), dict(n1=64.0), dict(n2_plus=9.0),
        dict(n2_minus=9.0), dict(report_every=1.5), dict(report_every=True),
        # a float key takes no bool and no infinity: t_end = inf never ends
        dict(t_end=math.inf), dict(beta_plus=math.inf), dict(gap_tol=math.inf),
        dict(t_end=True), dict(dt_safety=True), dict(beta_minus=True),
        dict(beta_plus=1.0, beta_minus=2e5),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SimConfig(**bad)

    def test_contrast_limit_admits_its_bound_and_a_more_permeable_upper_strip(self):
        SimConfig(beta_plus=1.0, beta_minus=evolution.MAX_PERMEABILITY_CONTRAST)
        SimConfig(beta_plus=1e12, beta_minus=1.0)


@lru_cache(maxsize=None)
def single_mode_ratios(config: SimConfig) -> np.ndarray:
    """coupling_ratio of each small single mode k = 1..n1/2 - 1 over a flat
    curve.  The Nyquist mode k = n1/2 is left out: the run removes it."""
    flow = flow_for(config)
    ratios = []
    for k in range(1, config.n1 // 2):
        h = cos_field(config.n1, k=k, amp=1e-4)
        head = flow.head(h.values)
        ratios.append(diagnostics.report(SimState(h=h), head, 0.0).coupling_ratio)
    return np.array(ratios)


class TestRandomSmallData:
    """Acceptance criteria 4 (script E never increases) and 6 (the coupling
    ratio stays bounded) over random small data with f = 0, not only cos x1."""

    CONFIG = SimConfig(n1=32, n2_plus=9, n2_minus=9, beta_plus=1.0, beta_minus=1.0,
                       t_end=1.0)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(amps=st.lists(st.floats(0.02, 0.05), min_size=16, max_size=16),
           phases=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=16, max_size=16))
    def test_decay_and_coupling_over_random_spectra(self, amps, phases):
        # the paper's H^2 regime: amplitudes fall off like k^-2.5, on every
        # mode up to the Nyquist mode k = n1/2 = 16
        n1 = self.CONFIG.n1
        h0 = PeriodicField1D.from_modes(
            n1, [(k, a * k ** -2.5 * math.cos(phi), a * k ** -2.5 * math.sin(phi))
                 for k, (a, phi) in enumerate(zip(amps, phases), start=1)])
        traj = run(self.CONFIG, h0, PeriodicField1D.zeros(n1))
        assert traj.termination == TERMINATION_COMPLETED
        energies = [r.script_E for r in traj.reports]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))
        # for small data both norms of the ratio are diagonal in the modes, so
        # its square is a weighted mean of the single-mode squares
        r_k = single_mode_ratios(self.CONFIG)
        for rep in traj.reports:
            assert 0.99 * r_k.min() <= rep.coupling_ratio <= 1.01 * r_k.max(), rep.t


class TestRandomCurvedData:
    """Acceptance criteria 3 (the L2 energy law converges) and 5 (the mean
    and flux ledgers) over random h0 and f != 0, not only cos x1, on the
    two grids 32 x (9+9) and 64 x (17+17).  numpy draws the data, one seed
    per case: hypothesis's draws move with the literals of the package's
    source."""

    @pytest.mark.parametrize("seed", range(10))
    def test_energy_law_order_and_ledgers_over_random_data(self, seed):
        rng = np.random.default_rng(seed)
        h_amps, f_amps = rng.uniform(0.02, 0.05, 16), rng.uniform(0.1, 0.2, 16)
        phases = rng.uniform(0.0, 2.0 * math.pi, 32)
        # amplitudes fall off like k^-2.5 in h0 and k^-3 in the curve f
        def field(n1, amps, phis, power):
            return PeriodicField1D.from_modes(
                n1, [(k, a * k ** -power * math.cos(phi), a * k ** -power * math.sin(phi))
                     for k, (a, phi) in enumerate(zip(amps, phis), start=1)])

        worst = []
        for n1, n2 in ((32, 9), (64, 17)):
            config = SimConfig(n1=n1, n2_plus=n2, n2_minus=n2, beta_plus=1.0,
                               beta_minus=0.5, t_end=0.5)
            traj = run(config, field(n1, h_amps, phases[:16], 2.5),
                       field(n1, f_amps, phases[16:], 3.0))
            assert traj.termination == TERMINATION_COMPLETED
            assert traj.max_abs_mean_h <= 1e-10
            assert traj.max_abs_top_flux <= 1e-8
            worst.append(max(abs(r.l2_law_residual) for r in traj.reports))
        # criterion 3 asks for order 1.9 at the reference scale; these
        # coarse grids measured 1.71-1.84 over seeds 0-199 (median 1.80)
        assert math.log2(worst[0] / worst[1]) >= 1.7


def random_spectrum(rng, x, k_max, amp, power):
    """sum over k = 1..k_max of a_k cos(k x + phi_k), with a_k drawn from
    amp [0.5, 1] k^-power and the phases uniform."""
    k = np.arange(1, k_max + 1)
    a = amp * rng.uniform(0.5, 1.0, k_max) * k ** -power
    phases = rng.uniform(0.0, 2.0 * math.pi, k_max)
    return (a[:, None] * np.cos(k[:, None] * x[None, :] + phases[:, None])).sum(axis=0)


class TestRunFuzz:
    """run over random valid configs: n1 4-32, 3-10 levels per strip,
    beta_plus of order 1 and beta_minus / beta_plus log-uniform in
    [1e-4, 1e5], h0 spectra k^-1.5 to k^-3 up to 0.4, curves with a mean
    in [-0.8, 0.8] and spectra k^-2 to k^-3.5, random dt_safety, gap_tol,
    j_min, and t_end of 0.5-8 steps.  The flux ledger is absolute and grows
    with beta_plus (4.9e-13 at beta_plus = 1 and 3.7e-8 at 1e5, with
    beta_minus = 1, on 32 x (9+9)), so the contrast is set through
    beta_minus.  Over seeds 0-599 the draws ended 345 completed,
    150 diffeo_degenerate, 65 gap_violation and 1 solver_failure, and 39
    were refused; the completed runs' ledgers peaked at 8.2e-13 (mean) and
    4.6e-11 (top flux)."""

    @staticmethod
    def draw(seed):
        rng = np.random.default_rng(seed)
        n1 = 2 * int(rng.integers(2, 17))
        x = nodes(n1)
        beta_plus = 10.0 ** rng.uniform(-0.5, 0.5)
        config = SimConfig(n1=n1, n2_plus=int(rng.integers(3, 11)),
                           n2_minus=int(rng.integers(3, 11)), beta_plus=beta_plus,
                           beta_minus=beta_plus * 10.0 ** rng.uniform(-4.0, 5.0),
                           dt_safety=rng.uniform(0.1, 1.0), gap_tol=rng.uniform(0.01, 0.1),
                           j_min=rng.uniform(0.01, 0.3))
        config = replace(config, t_end=config.dt * rng.uniform(0.5, 8.0))
        h0 = random_spectrum(rng, x, n1 // 2, rng.uniform(0.0, 0.4), rng.uniform(1.5, 3.0))
        f = rng.uniform(-0.8, 0.8) + random_spectrum(rng, x, n1 // 2, rng.uniform(0.0, 0.6),
                                                     rng.uniform(2.0, 3.5))
        return config, PeriodicField1D(h0), PeriodicField1D(f)

    @pytest.mark.parametrize("seed", range(40))
    def test_run_ends_named_or_is_refused(self, seed):
        config, h0, f = self.draw(seed)
        try:
            evolution.check_data(config, h0, f)
        except ValueError:
            with pytest.raises(ValueError):
                run(config, h0, f)
            return
        traj = run(config, h0, f)  # accepted data: nothing may raise
        assert traj.termination in (TERMINATION_COMPLETED, TERMINATION_GAP,
                                    TERMINATION_DEGENERATE, TERMINATION_SOLVER)
        if traj.termination != TERMINATION_COMPLETED:
            assert traj.error and traj.error_time is not None
            return
        assert traj.states[-1].t == pytest.approx(config.t_end, abs=1e-12)
        # criterion 5's ledgers
        assert traj.max_abs_mean_h <= 1e-10
        assert traj.max_abs_top_flux <= 1e-8


class TestCurveInvisibleAtEqualBetas:
    """Oracle A for the nonlinear evolution: with beta_plus == beta_minus
    the physical problem does not depend on the permeability curve f, only
    its pull-back does, so runs that differ only in f must agree up to
    discretization error, at second order in n2.  It checks the lower
    strip's map and metric, the permeability line's cell and the face
    coupling across a curved line, through time stepping, at amplitudes
    where the evolution is nonlinear.  The orders of max|h(f) - h(0)| at
    t = 0.5 over 9 -> 17 -> 33 levels: 1.85, 1.96 for fA and 1.97, 1.96
    for fB; over seeds 0-199 of the random draws at least 1.808 and 1.931
    (10th percentiles 1.900 and 1.968)."""

    @staticmethod
    def assert_second_order(h0, f, beta):
        n1 = h0.size
        gaps = []
        for n2 in (9, 17, 33):
            config = SimConfig(n1=n1, n2_plus=n2, n2_minus=n2, beta_plus=beta,
                               beta_minus=beta, t_end=0.5)
            ends = []
            for curve in (f, np.zeros(n1)):
                traj = run(config, PeriodicField1D(h0), PeriodicField1D(curve))
                assert traj.termination == TERMINATION_COMPLETED, traj.error
                ends.append(traj.states[-1].h.values)
            gaps.append(np.max(np.abs(ends[0] - ends[1])))
        orders = [math.log2(coarse / fine) for coarse, fine in zip(gaps, gaps[1:])]
        assert orders[0] >= 1.75 and orders[1] >= 1.9, orders

    @pytest.mark.parametrize("curve", [
        lambda x: 0.2 * np.cos(2 * x + 0.3),
        lambda x: 0.3 * np.cos(x) - 0.1 * np.sin(4 * x),
    ], ids=["fA", "fB"])
    def test_fixed_curves(self, curve):
        x = nodes(128)
        self.assert_second_order(0.2 * np.cos(x) + 0.05 * np.sin(3 * x), curve(x), 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_data(self, seed):
        rng = np.random.default_rng(seed)
        x = nodes(64)
        h0 = random_spectrum(rng, x, 3, rng.uniform(0.05, 0.2), 1.5)
        f = random_spectrum(rng, x, 4, rng.uniform(0.1, 0.3), 1.5)
        self.assert_second_order(h0, f, 10.0 ** rng.uniform(-0.3, 0.3))


def flat_symbol(k, beta_plus=1.0, beta_minus=1.0):
    """G0(k) = k T (b+ + b-) / (b+ + b- T^2), T = tanh k: the
    Dirichlet-to-Neumann symbol of the flat interface over the flat
    permeability line at x2 = -1 and the floor at x2 = -2, so that
    -beta_plus G0(k) is diagnostics.dispersion_rate(k); k tanh(2k) at equal
    betas."""
    t = np.tanh(k)
    return k * t * (beta_plus + beta_minus) / (beta_plus + beta_minus * t * t)


def dtn_expansion(h, beta_plus=1.0, beta_minus=1.0):
    """The first three terms of the Dirichlet-to-Neumann operator G(h) of the
    upper layer over the flat two-layer structure below the interface h,
    applied to h itself (Craig & Sulem 1993): G0 = flat_symbol(D),
    G1(h) = D h D - G0 h G0 and G2(h) = -(D^2 h^2 G0 + G0 h^2 D^2 -
    2 G0 h G0 h G0) / 2 with D = -i d/dx1, so that D h D = -d(h d.)/dx1.
    The recursion uses only phi'' = k^2 phi above the line and phi'(0) =
    G0 phi(0), so it holds over any fixed flat structure.  Spectral,
    sharing nothing with the pulled-back head solve."""
    n = h.size
    k = np.arange(n // 2 + 1)

    def multiplier(symbol):
        return lambda u: np.fft.irfft(symbol * np.fft.rfft(u), n=n)

    g0 = multiplier(flat_symbol(k, beta_plus, beta_minus))
    dx, d2 = multiplier(1j * k), multiplier(k ** 2.0)
    g0h = g0(h)
    g1h = -dx(h * dx(h)) - g0(h * g0h)
    g2h = -0.5 * (d2(h * h * g0h) + g0(h * h * d2(h)) - 2.0 * g0(h * g0(h * g0h)))
    return g0h, g1h, g2h


# the fixed interface shapes of both oracle B tests
DTN_SHAPES = [
    lambda x: np.cos(x) + 0.5 * np.sin(2 * x + 0.4) + 0.2 * np.cos(3 * x),
    lambda x: 0.8 * np.sin(x) - 0.6 * np.cos(4 * x + 1.0),
]


# fixed (beta_plus, beta_minus) of both oracle B tests at unequal betas
DTN_BETAS = [(1.0, 0.1), (1.0, 10.0), (1.0, 100.0), (0.5, 1e3), (1.0, 1e-3)]


def random_contrast(rng):
    """beta_plus 10^U(-0.3, 0.3) and beta_minus / beta_plus 10^U(-4, 5): the
    admitted contrasts up to MAX_PERMEABILITY_CONTRAST, and a more permeable
    upper strip down to 1e-4."""
    beta_plus = 10.0 ** rng.uniform(-0.3, 0.3)
    return beta_plus, beta_plus * 10.0 ** rng.uniform(-4.0, math.log10(MAX_PERMEABILITY_CONTRAST))


class TestDirichletToNeumannExpansion:
    """Oracle B for the nonlinear right side: with f = 0 the problem is
    one-phase Muskat flow in the upper layer over a flat two-layer
    structure, h_t = -beta_plus G(h) h, and the trace of one evaluation at
    h = eps shape must approach -beta_plus (G0 + G1 + G2) h at second order
    in n2 down to the expansion's eps^4 truncation, and sit well inside the
    eps^3 term G2.  At eps = 0.02 over n2 = 33 -> 65 -> 129 levels and
    equal betas: orders 2.04, 2.16 and a distance of 0.10 of the one from
    G0 + G1 alone for fixed1, and 2.10, 2.52 and 0.13 for fixed2; over both
    and seeds 0-199 of the equal-betas random draws the orders were at
    least 2.038 and 2.125 and the distance at most 0.174.  At unequal betas
    (oracle C1), over both shapes at DTN_BETAS the orders were at least
    2.015 and 2.064 and the distance at most 0.143; over seeds 0-199 of the
    random contrasts, at least 2.047 and 2.057 (10th percentiles 2.065 and
    2.253) and at most 0.265 (90th percentile 0.157), two draws above 0.25,
    both at contrasts over 3e4, with orders 2.09 and 2.43 or more: there G2
    moves the trace less, not the grid more, so C1's distance bound is
    0.35."""

    EPS = 0.02

    def assert_expansion_matched(self, shape, beta_plus, beta_minus, resolved=0.25):
        n1 = shape.size
        h = self.EPS * shape
        g0h, g1h, g2h = dtn_expansion(h, beta_plus, beta_minus)
        errors = []
        for n2 in (33, 65, 129):
            config = SimConfig(n1=n1, n2_plus=n2, n2_minus=n2, beta_plus=beta_plus,
                               beta_minus=beta_minus)
            beyond_g1 = flow_for(config).head(h).gamma_trace_w2 + beta_plus * (g0h + g1h)
            errors.append(np.max(np.abs(beyond_g1 + beta_plus * g2h)))
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert orders[0] >= 1.95 and orders[1] >= 2.0, orders
        # G2 is resolved: the finest trace is much nearer G0 + G1 + G2 than
        # G0 + G1
        assert errors[-1] <= resolved * np.max(np.abs(beyond_g1)), errors

    @pytest.mark.parametrize("shape", DTN_SHAPES, ids=["fixed1", "fixed2"])
    def test_fixed_shapes(self, shape):
        self.assert_expansion_matched(shape(nodes(128)), 1.0, 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_shapes(self, seed):
        # modes k = 1..4 with amplitudes k^-1 [0.5, 1], scaled to max 1.5
        rng = np.random.default_rng(seed)
        shape = random_spectrum(rng, nodes(128), 4, 1.0, 1.0)
        beta = 10.0 ** rng.uniform(-0.3, 0.3)
        self.assert_expansion_matched(1.5 * shape / np.max(np.abs(shape)), beta, beta)

    @pytest.mark.parametrize("betas", DTN_BETAS, ids=str)
    @pytest.mark.parametrize("shape", DTN_SHAPES, ids=["fixed1", "fixed2"])
    def test_fixed_contrasts(self, shape, betas):
        self.assert_expansion_matched(shape(nodes(128)), *betas, resolved=0.35)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_contrasts(self, seed):
        # the random shapes, at a drawn contrast
        rng = np.random.default_rng(seed)
        shape = random_spectrum(rng, nodes(128), 4, 1.0, 1.0)
        self.assert_expansion_matched(1.5 * shape / np.max(np.abs(shape)),
                                      *random_contrast(rng), resolved=0.35)


def dtn_evolution(h0, t_end, n_steps, beta_plus=1.0, beta_minus=1.0, k_max=12):
    """h at t_end under h_t = -beta_plus (G0 + G1 + G2) h from h0
    (dtn_expansion).  G0 is integrated exactly by the factor
    exp(-beta_plus G0 t) in the rfft modes, and G1 + G2 by classical RK4 on
    the factored variable (Lawson 1967), every stage projected onto
    k <= k_max: unprojected, the truncated expansion is ill-posed in the
    high modes and overflows."""
    n = h0.size
    k = np.arange(n // 2 + 1)
    keep = k <= k_max

    def rest(hat):
        _, g1h, g2h = dtn_expansion(np.fft.irfft(hat, n=n), beta_plus, beta_minus)
        return np.where(keep, -beta_plus * np.fft.rfft(g1h + g2h), 0.0)

    dt = t_end / n_steps
    half = np.exp(-0.5 * dt * beta_plus * flat_symbol(k, beta_plus, beta_minus))
    full = half * half
    hat = np.where(keep, np.fft.rfft(h0), 0.0)
    for _ in range(n_steps):
        a = rest(hat)
        b = rest(half * (hat + 0.5 * dt * a))
        c = rest(half * hat + 0.5 * dt * b)
        d = rest(full * hat + dt * half * c)
        hat = full * hat + dt / 6.0 * (full * a + 2.0 * half * (b + c) + d)
    return np.fft.irfft(hat, n=n)


class TestDirichletToNeumannEvolution:
    """Oracle B for the nonlinear evolution: with f = 0, a run's h from
    h0 = eps shape must approach dtn_evolution's at second order in n2, at
    t_end = flat_symbol(1) / (beta_plus flat_symbol(1, beta_plus,
    beta_minus)), by when the slowest flat mode has decayed as much as by
    t = 1 at unit betas (t_end = 1 there, six steps).  At eps = 0.03 over
    n2 = 9 -> 17 -> 33 levels and unit betas: orders 1.99, 2.00 for fixed1
    and 1.94, 2.00 for fixed2; over both and seeds 0-59 of the random draws at least 1.942
    and 1.984 (10th percentiles 1.961 and 1.992).  What no n2 refinement
    removes (the expansion's truncation, the fourth-order x1 stencil, both
    time steps) was at most 0.045 of the finest error, measured from the
    Richardson limit of n2 = 129 and 257, and the oracle's 50 steps differ
    from 400 by at most 2.4e-12.  At eps = 0.04 that share reached 0.096.
    At unequal betas (oracle C1), over fixed2 at DTN_BETAS the orders were
    at least 1.942 and 1.991, and over seeds 0-199 of the random contrasts
    at least 1.958 and 1.983 (10th percentiles 1.964 and 1.989); every run
    took six steps."""

    EPS = 0.03

    def assert_evolution_matched(self, shape, beta_plus=1.0, beta_minus=1.0):
        n1 = shape.size
        h0 = self.EPS * shape
        t_end = flat_symbol(1.0) / (beta_plus * flat_symbol(1.0, beta_plus, beta_minus))
        oracle = dtn_evolution(h0, t_end, 50, beta_plus, beta_minus)
        errors = []
        for n2 in (9, 17, 33):
            config = SimConfig(n1=n1, n2_plus=n2, n2_minus=n2, beta_plus=beta_plus,
                               beta_minus=beta_minus, t_end=t_end, report_every=10 ** 9)
            traj = run(config, PeriodicField1D(h0), PeriodicField1D.zeros(n1))
            assert traj.termination == TERMINATION_COMPLETED, traj.error
            assert traj.states[-1].step_count == 6
            errors.append(np.max(np.abs(traj.states[-1].h.values - oracle)))
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert orders[0] >= 1.9 and orders[1] >= 1.95, orders

    @pytest.mark.parametrize("shape", DTN_SHAPES, ids=["fixed1", "fixed2"])
    def test_fixed_shapes(self, shape):
        self.assert_evolution_matched(shape(nodes(128)))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_shapes(self, seed):
        # TestDirichletToNeumannExpansion's shapes: modes k = 1..4 with
        # amplitudes k^-1 [0.5, 1], scaled to max 1.5
        shape = random_spectrum(np.random.default_rng(seed), nodes(128), 4, 1.0, 1.0)
        self.assert_evolution_matched(1.5 * shape / np.max(np.abs(shape)))

    # one shape per contrast, fixed2, the one whose first order sits nearest
    # its bound at equal betas: a run takes about 0.2 s
    @pytest.mark.parametrize("betas", DTN_BETAS, ids=str)
    def test_fixed_contrasts(self, betas):
        self.assert_evolution_matched(DTN_SHAPES[1](nodes(128)), *betas)

    @pytest.mark.parametrize("seed", range(2))
    def test_random_contrasts(self, seed):
        # the random shapes, at a drawn contrast
        rng = np.random.default_rng(seed)
        shape = random_spectrum(rng, nodes(128), 4, 1.0, 1.0)
        self.assert_evolution_matched(1.5 * shape / np.max(np.abs(shape)),
                                      *random_contrast(rng))
