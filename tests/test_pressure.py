import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from muskat import pressure
from muskat.diffeo import (
    DEFAULT_J_MIN,
    LOWER,
    UPPER,
    PermeabilityProfile,
    StripGrid,
    harmonic_extension,
    metric_terms,
    vertical_derivative,
)
from muskat.diagnostics import dispersion_rate
from muskat.errors import (
    NoContraction,
    NonSPDSystem,
    ResolutionMismatch,
    SolverDivergence,
)
from muskat.evolution import MAX_PERMEABILITY_CONTRAST
from muskat.pressure import PICARD_TOL, RESIDUAL_TOL, solve_head
from muskat.spectral_core import PeriodicField1D, nodes, x1_derivative


def setup(n1, n2, h_vals, f_vals, beta_plus, beta_minus):
    h = PeriodicField1D(h_vals)
    f = PeriodicField1D(f_vals)
    profile = PermeabilityProfile(f, beta_plus, beta_minus)
    grid_p = StripGrid(UPPER, n1, n2)
    grid_m = StripGrid(LOWER, n1, n2)
    pack_p = metric_terms(harmonic_extension(h, f, grid_p), profile)
    pack_m = metric_terms(harmonic_extension(h, f, grid_m), profile)
    return pack_p, pack_m, h, profile


def gate_problem():
    # an interface and a curve that both paths solve within the gate
    x = nodes(64)
    return setup(64, 17, 0.07 * np.cos(x) + 0.02 * np.sin(3 * x), 0.1 * np.cos(2 * x),
                 1.3, 0.4)


def perturbed(x):
    noise = np.random.default_rng(6).uniform(-1.0, 1.0, size=x.shape)
    return x + 1e-6 * np.max(np.abs(x)) * noise


def w_max(head):
    return max(float(np.max(np.abs(w))) for w in (head.w1, head.w2))


def line_row(head, pack_p, pack_m, h):
    """The permeability line's balance row at the head: the jump of the
    normal K-flux across the line, integrated over its cell."""
    balance = pressure._CellBalance.from_packs(pack_m, pack_p)
    rows = balance(balance.heads(balance.free_unknowns(head.p), h.values))
    return rows[balance.m_minus - 1]


class TestRestStates:
    def test_flat_everything(self):
        head = solve_head(*setup(64, 17, np.zeros(64), np.zeros(64), 1.0, 1.0))
        assert w_max(head) <= 1e-12
        assert np.max(np.abs(head.p)) <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        f_modes=st.lists(st.tuples(st.integers(0, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=2),
        f_amp=st.floats(0.0, 0.15),
        betas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    )
    def test_flat_interface_any_permeability_curve(self, f_modes, f_amp, betas):
        # per-mode amplitude f_amp / k, as in the Krylov property test
        f = PeriodicField1D.from_modes(
            64, [(k, f_amp * c / max(k, 1), f_amp * s / max(k, 1)) for k, c, s in f_modes])
        head = solve_head(*setup(64, 17, np.zeros(64), f.values, *betas))
        assert w_max(head) <= 1e-12
        assert np.max(np.abs(head.gamma_trace_w2)) <= 1e-13


class TestSingleModeOracle:
    @pytest.mark.parametrize("beta", [(1.0, 1.0), (1.0, 0.1), (0.1, 1.0)])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_trace_matches_linearized_rate(self, beta, k):
        n1, n2 = 128, 64
        x = nodes(n1)
        eps = 1e-4
        pack_p, pack_m, h, profile = setup(
            n1, n2, eps * np.cos(k * x), np.zeros(n1), *beta)
        head = solve_head(pack_p, pack_m, h, profile)
        sigma = dispersion_rate(k, profile)
        mode = np.cos(k * x)
        measured = np.dot(head.gamma_trace_w2, mode) / np.dot(eps * mode, mode)
        assert measured == pytest.approx(sigma, rel=1e-2)

    def test_equal_betas_match_merged_single_layer(self):
        # with beta+ = beta- the two-strip solve must reproduce the depth-2
        # single-layer rate -beta k tanh(2k)
        n1, n2 = 128, 64
        x = nodes(n1)
        eps = 1e-4
        beta = 0.7
        pack_p, pack_m, h, profile = setup(
            n1, n2, eps * np.cos(2 * x), np.zeros(n1), beta, beta)
        head = solve_head(pack_p, pack_m, h, profile)
        mode = np.cos(2 * x)
        measured = np.dot(head.gamma_trace_w2, mode) / np.dot(eps * mode, mode)
        assert measured == pytest.approx(-beta * 2 * math.tanh(4.0), rel=1e-2)


def two_layer_heads(k, contrast):
    """cos(k x1) times A cosh(k (x2 + 2)) below the flat line x2 = -1 and
    A (cosh k cosh(k (x2 + 1)) + contrast sinh k sinh(k (x2 + 1))) above it,
    A = 1: harmonic in each layer, no flux through the floor, and head and
    beta times the normal flux continuous across the line for
    beta_minus / beta_plus = contrast."""
    def lower(x1, x2):
        return np.cosh(k * (x2 + 2.0)) * np.cos(k * x1)

    def upper(x1, x2):
        return (np.cosh(k) * np.cosh(k * (x2 + 1.0))
                + contrast * np.sinh(k) * np.sinh(k * (x2 + 1.0))) * np.cos(k * x1)

    return lower, upper


class TestManufacturedHead:
    """The curved head solve against physical heads that are harmonic in
    each layer, pulled back through the strip maps to x2_ref + delta_psi:
    an oracle that shares no discretization with the balance.  Both strips
    are sheared (k12 != 0), so the orders check how the balance uses K.
    The interface is h = 0.15 cos x1 + 0.05 sin 3 x1; n1 keeps the x1
    stencil's error floor out of the measured orders in n2.  The top trace
    is the flux of -beta_plus grad P through the interface per unit x1,
    w2 = -beta_plus (d2P - h' d1P) at (x1, h), with the physical
    derivatives of P taken by complex step (Squire & Trapp 1998)."""

    @staticmethod
    def errors(n1, n2, f_values, betas, heads):
        """max|error| over max|exact| of the solved free heads and of the top
        trace w2; heads are the (lower, upper) physical heads of (x1, x2),
        and the top data is the upper one at x2 = h."""
        x1 = nodes(n1)
        h = PeriodicField1D(0.15 * np.cos(x1) + 0.05 * np.sin(3 * x1))
        f = PeriodicField1D(f_values)
        profile = PermeabilityProfile(f, *betas)
        packs, exact = [], []
        for grid, head in zip((StripGrid(LOWER, n1, n2), StripGrid(UPPER, n1, n2)), heads):
            shift = harmonic_extension(h, f, grid)
            packs.append(metric_terms(shift, profile))
            exact.append(head(x1, grid.x2[:, None] + shift.values))
        # the shared grid holds the permeability line once
        exact = np.vstack([exact[0], exact[1][1:]])
        balance = pressure._CellBalance.from_packs(*packs)
        top = heads[1](x1, h.values)
        b = -balance.free_rows(np.zeros_like(exact[:-1]), top)
        x, _ = pressure._cg(balance.free_rows, b,
                            pressure._flat_inverse(n1, n2, n2, *betas).solve, 1e-12)
        trace = -balance(balance.heads(x, top))[-1]
        step = 1e-30
        d1p = heads[1](x1 + 1j * step, h.values).imag / step
        d2p = heads[1](x1, h.values + 1j * step).imag / step
        exact_trace = -betas[0] * (d2p - x1_derivative(h.values) * d1p)
        return (np.max(np.abs(x - exact[:-1])) / np.max(np.abs(exact)),
                np.max(np.abs(trace - exact_trace)) / np.max(np.abs(exact_trace)))

    @classmethod
    def assert_second_order(cls, n1, f_values, betas, heads):
        errors = [cls.errors(n1, n2, f_values, betas, heads) for n2 in (17, 33, 65)]
        for coarse, fine in zip(errors, errors[1:]):
            for e_coarse, e_fine in zip(coarse, fine):  # head, then trace
                assert math.log2(e_coarse / e_fine) >= 1.9

    def test_equal_betas_sheared_line(self):
        # cosh(k (x2 + 2)) cos(k x1) is harmonic across any line when the
        # betas are equal, so f may shear the lower strip too
        x1 = nodes(256)
        head, _ = two_layer_heads(1.0, 1.0)
        self.assert_second_order(256, 0.2 * np.cos(2 * x1 + 0.3), (1.0, 1.0), (head, head))

    def test_contrast_across_a_flat_line(self):
        self.assert_second_order(128, np.zeros(128), (1.0, 1e4), two_layer_heads(1.0, 1e4))


class TestFlatTopRates:
    """sigma_h, the top-line rate of each mode of h over the flat metric:
    the linear part that the exponential step integrates exactly."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n1=st.integers(2, 16).map(lambda k: 2 * k),
           levels=st.tuples(st.integers(3, 12), st.integers(3, 12)),
           betas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)))
    def test_real_nonpositive_and_mean_conserved(self, n1, levels, betas):
        n2_plus, n2_minus = levels
        sigma = pressure.flat_top_rates(n1, n2_plus, n2_minus, *betas)
        scale = np.max(np.abs(sigma))
        assert sigma.shape == (n1 // 2 + 1,) and not sigma.flags.writeable
        assert np.max(np.abs(sigma.imag)) <= 1e-12 * scale
        assert np.max(sigma.real) <= 1e-12 * scale
        assert abs(sigma[0]) <= 1e-12 * scale

    @pytest.mark.parametrize("beta", [(1.0, 1.0), (1.0, 0.5), (0.1, 1.0), (3.0, 0.1)])
    def test_low_modes_match_dispersion_rate(self, beta):
        sigma = pressure.flat_top_rates(128, 64, 64, *beta)
        profile = PermeabilityProfile(PeriodicField1D.zeros(128), *beta)
        for k in range(1, 5):
            assert sigma[k].real == pytest.approx(dispersion_rate(k, profile), rel=1e-3)

    # sigma_h is read off the last pivot of the flat factorization; the
    # oracle is the trace of a unit top impulse, solved by LU with one step
    # of iterative refinement (unrefined, its own error reaches 4e-10 of
    # max|sigma| at contrast 1e5, against a 50-digit Thomas sweep)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n1=st.integers(2, 16).map(lambda k: 2 * k),
           levels=st.tuples(st.integers(3, 12), st.integers(3, 12)),
           beta_plus=st.floats(0.1, 3.0),
           contrast=st.floats(-1.0, 1.0).map(lambda e: MAX_PERMEABILITY_CONTRAST ** e))
    def test_pivot_rates_match_the_impulse_response(self, n1, levels, beta_plus, contrast):
        n2_plus, n2_minus = levels
        beta_minus = contrast * beta_plus
        flat = pressure._CellBalance.flat(n1, n2_minus, n2_plus, beta_plus, beta_minus)
        impulse = np.zeros(n1)
        impulse[0] = 1.0
        b = -flat.free_rows(np.zeros((flat.n_lev, n1)), impulse)
        lu = splu(pressure._probe(flat))
        x = lu.solve(b.ravel()).reshape(b.shape)
        x += lu.solve((b - flat.free_rows(x)).ravel()).reshape(b.shape)
        expected = np.fft.rfft(-flat(flat.heads(x, impulse))[-1])
        sigma = pressure.flat_top_rates(n1, n2_plus, n2_minus, beta_plus, beta_minus)
        assert np.max(np.abs(sigma - expected)) <= 1e-13 * np.max(np.abs(sigma))

    def test_rates_of_the_linearized_solve(self):
        # a small single mode over a flat curve, the Nyquist mode included:
        # the top trace of the full solve is sigma_h[k] times the mode
        n1, n2, beta = 32, 9, (1.0, 0.5)
        sigma = pressure.flat_top_rates(n1, n2, n2, *beta)
        x = nodes(n1)
        eps = 1e-8
        for k in range(1, n1 // 2 + 1):
            mode = np.cos(k * x)
            head = solve_head(*setup(n1, n2, eps * mode, np.zeros(n1), *beta))
            measured = np.dot(head.gamma_trace_w2, mode) / np.dot(eps * mode, mode)
            assert abs(measured - sigma[k].real) <= 1e-6 * np.max(np.abs(sigma)), k


class TestConservation:
    def test_zero_total_top_flux(self):
        rng = np.random.default_rng(20)
        x = nodes(64)
        h_vals = 0.05 * np.cos(x) + 0.02 * np.sin(2 * x)
        f_vals = 0.1 * np.cos(x) + 0.03 * np.sin(3 * x)
        head = solve_head(*setup(64, 33, h_vals, f_vals, 1.0, 0.5))
        assert abs(head.top_flux_total) <= 1e-12

    @pytest.mark.parametrize("solver", ["direct", "krylov"])
    def test_permeability_line_row_is_balanced(self, solver, monkeypatch):
        # the line is one free row of the solve: the residual gate bounds
        # its flux jump, the outputs copy its heads to both strips, and
        # free_unknowns reads the solved rows back from them
        x = nodes(64)
        pack_p, pack_m, h, profile = setup(64, 33, 0.05 * np.cos(x), 0.1 * np.sin(x),
                                           1.0, 0.25)
        solved = []
        recover = pressure._recover

        def capture(balance, p, *args):  # the solved head array of the shared grid
            solved.append((balance, p))
            return recover(balance, p, *args)

        monkeypatch.setattr(pressure, "_recover", capture)
        head = solve_head(pack_p, pack_m, h, profile, solver=solver)
        ((balance, p),) = solved
        m = balance.m_minus
        b = -balance.free_rows(np.zeros_like(p[:-1]), p[-1])
        assert np.max(np.abs(balance(p)[m - 1])) <= RESIDUAL_TOL * np.max(np.abs(b))
        # the flux jump at the scale of h, within the bound the two
        # recovered line fluxes were held to
        assert np.max(np.abs(line_row(head, pack_p, pack_m, h))) <= 1e-11
        assert np.array_equal(head.p[m - 1], head.p[m])
        assert np.array_equal(balance.free_unknowns(head.p), np.max(np.abs(h.values)) * p[:-1])

    def test_one_sided_flux_jump_second_order(self):
        # pointwise flux continuity, recomputed with one-sided 3-point
        # stencils from each strip, converges at the vertical truncation order
        x = nodes(64)
        jumps = {}
        for n2 in (17, 33, 65):
            pack_p, pack_m, h, profile = setup(
                64, n2, 0.05 * np.cos(x), 0.1 * np.sin(x), 1.0, 0.25)
            head = solve_head(pack_p, pack_m, h, profile)
            d = 1.0 / (n2 - 1)
            pm, pp = head.p[:n2], head.p[n2:]
            dp2_below = (3 * pm[-1] - 4 * pm[-2] + pm[-3]) / (2 * d)
            dp2_above = (-3 * pp[0] + 4 * pp[1] - pp[2]) / (2 * d)
            dp1 = x1_derivative(pp)[0]
            flux_below = pack_m.k12[-1] * dp1 + pack_m.k22[-1] * dp2_below
            flux_above = pack_p.k12[0] * dp1 + pack_p.k22[0] * dp2_above
            jumps[n2] = np.max(np.abs(flux_above - flux_below))
        assert math.log2(jumps[17] / jumps[33]) >= 1.5
        assert math.log2(jumps[33] / jumps[65]) >= 1.5

    def test_floor_flux_vanishes_with_refinement(self):
        x = nodes(64)
        vals = {}
        for n2 in (17, 33):
            head = solve_head(*setup(64, n2, 0.05 * np.cos(x), 0.1 * np.cos(2 * x),
                                     1.0, 0.5))
            vals[n2] = np.max(np.abs(head.w2[0]))
        assert math.log2(vals[17] / vals[33]) >= 1.5

    def test_interior_divergence_truncation_order(self):
        x = nodes(64)
        res = {}
        for n2 in (17, 33):
            pack_p, pack_m, h, profile = setup(
                64, n2, 0.04 * np.cos(x), 0.08 * np.sin(x), 1.0, 0.5)
            head = solve_head(pack_p, pack_m, h, profile)
            # the upper strip's rows, without the two levels next to each line
            w1, w2 = head.w1[n2:], head.w2[n2:]
            div = x1_derivative(w1) + vertical_derivative(w2, pack_p.grid.dx2)
            res[n2] = np.max(np.abs(div[2:-2]))
        assert math.log2(res[17] / res[33]) >= 1.5


class TestSymmetryAndPositivity:
    def test_reflection_equivariance(self):
        # even h, f: P even and w1 odd under x1 -> -x1
        n1 = 64
        x = nodes(n1)
        head = solve_head(*setup(n1, 17, 0.05 * np.cos(x), 0.1 * np.cos(2 * x),
                                 1.0, 0.5))
        refl = (-np.arange(n1)) % n1
        # both strips: P and w2 even, w1 odd
        assert np.max(np.abs(head.p - head.p[:, refl])) < 1e-12
        assert np.max(np.abs(head.w1 + head.w1[:, refl])) < 1e-12
        assert np.max(np.abs(head.w2 - head.w2[:, refl])) < 1e-12

    def test_dissipation_nonnegative(self):
        rng = np.random.default_rng(21)
        x = nodes(32)
        for _ in range(3):
            h_vals = 0.1 * rng.normal() * np.cos(x) + 0.05 * rng.normal() * np.sin(2 * x)
            f_vals = 0.1 * rng.normal() * np.cos(x)
            head = solve_head(*setup(32, 9, h_vals, f_vals, 1.3, 0.4))
            assert head.dissipation >= 0.0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        # a cosine amplitude of at least 0.2 per mode: h != 0, so k12 != 0
        h_modes=st.lists(st.tuples(st.integers(1, 4), st.floats(0.2, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=3),
        f_modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=2),
        h_amp=st.floats(0.01, 0.1),
        f_amp=st.floats(0.01, 0.15),
        betas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
        levels=st.tuples(st.integers(3, 12), st.integers(3, 12)),
    )
    def test_dissipation_matches_pullback_formula(self, h_modes, f_modes, h_amp, f_amp,
                                                  betas, levels):
        # the oracle is the pull-back form that recovery replaced: the sum
        # over strips of (J / beta) (v1^2 + v2^2), with v from w = J A v, by
        # the nodal x1 rule and the trapezoid rule in x2 per strip; since
        # K = beta J A A^T it is grad P . K grad P pointwise
        n1 = 16
        m_plus, m_minus = levels

        def field(modes, amp):
            # per-mode amplitude amp / k, far from a degenerate strip map
            return PeriodicField1D.from_modes(
                n1, [(k, amp * c / k, amp * s / k) for k, c, s in modes])

        h, f = field(h_modes, h_amp), field(f_modes, f_amp)
        profile = PermeabilityProfile(f, *betas)
        pack_p = metric_terms(harmonic_extension(h, f, StripGrid(UPPER, n1, m_plus)), profile)
        pack_m = metric_terms(harmonic_extension(h, f, StripGrid(LOWER, n1, m_minus)), profile)
        assert np.max(np.abs(pack_p.k12)) > 0.0
        head = solve_head(pack_p, pack_m, h, profile)
        oracle = 0.0
        for pack, rows in ((pack_p, slice(m_minus, None)), (pack_m, slice(None, m_minus))):
            w1, w2 = head.w1[rows], head.w2[rows]
            v1 = w1 / pack.J
            v2 = pack.d1 * w1 / pack.J + w2
            integrand = (pack.J / pack.beta) * (v1 * v1 + v2 * v2)
            per_level = integrand.sum(axis=1) * pack.grid.dx1
            oracle += pack.grid.dx2 * (per_level.sum() - 0.5 * (per_level[0] + per_level[-1]))
        assert oracle > 0.0
        assert abs(head.dissipation - oracle) <= 1e-12 * oracle


class TestPicard:
    def test_rest_state_converges_immediately(self):
        head = solve_head(*setup(32, 9, np.zeros(32), np.zeros(32), 1.0, 1.0),
                          solver="picard")
        assert w_max(head) <= 1e-12

    def test_agrees_with_direct_in_small_regime(self):
        x = nodes(64)
        args = setup(64, 33, 0.005 * np.cos(x), 0.02 * np.cos(2 * x), 1.0, 0.5)
        direct = solve_head(*args)
        fixed = solve_head(*args, solver="picard")
        assert np.max(np.abs(direct.p - fixed.p)) <= 10 * PICARD_TOL
        assert fixed.cg_iterations == 0

    def test_diverges_at_large_amplitude_while_direct_succeeds(self):
        x = nodes(64)
        args = setup(64, 17, 0.55 * np.cos(x), np.zeros(64), 1.0, 1.0)
        assert np.min(args[0].J) < 0.45  # well outside the contraction regime
        solve_head(*args)  # direct path is fine
        with pytest.raises(NoContraction):
            solve_head(*args, solver="picard")


class TestSolverOptions:
    def test_krylov_matches_direct(self):
        x = nodes(64)
        args = setup(64, 17, 0.02 * np.cos(x), 0.05 * np.cos(2 * x), 1.0, 0.5)
        direct = solve_head(*args, solver="direct")
        krylov = solve_head(*args, solver="krylov")
        assert np.max(np.abs(direct.p - krylov.p)) < 1e-8
        assert np.max(np.abs(direct.gamma_trace_w2
                             - krylov.gamma_trace_w2)) < 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        h_modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=3),
        f_modes=st.lists(st.tuples(st.integers(0, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), max_size=2),
        h_amp=st.floats(0.0, 0.1),
        f_amp=st.floats(0.0, 0.15),
        betas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
        perturbation=st.tuples(st.integers(1, 4), st.floats(-0.05, 0.05)),
    )
    def test_krylov_matches_direct_property(self, h_modes, f_modes, h_amp, f_amp, betas,
                                            perturbation):
        # per-mode amplitude amp / k keeps every slope below amp, far from a
        # degenerate strip map
        n1 = 32

        def field(modes, amp):
            return PeriodicField1D.from_modes(
                n1, [(k, amp * c / max(k, 1), amp * s / max(k, 1)) for k, c, s in modes]
            ).values

        f = field(f_modes, f_amp)
        args = setup(n1, 9, field(h_modes, h_amp), f, *betas)
        # the warm start is the head of a perturbed interface, as a
        # neighbouring RK stage hands it on
        k, eps = perturbation
        nearby = solve_head(*setup(n1, 9, args[2].values + eps * field([(k, 1.0, 0.0)], 0.1),
                                   f, *betas), solver="krylov")
        direct = solve_head(*args, solver="direct")
        cold = solve_head(*args, solver="krylov")
        warm = solve_head(*args, solver="krylov", guess=nearby.p)
        for krylov in (cold, warm):
            assert np.max(np.abs(direct.p - krylov.p)) <= 1e-8
            assert np.max(np.abs(direct.gamma_trace_w2
                                 - krylov.gamma_trace_w2)) <= 1e-8
            assert abs(direct.top_flux_total - krylov.top_flux_total) <= 1e-8
        # mass ledger and flux continuity hold to solver precision on both
        # paths (CG's residual leaves about 1e-12 here, LU roundoff)
        for head in (direct, cold, warm):
            assert abs(head.top_flux_total) <= 1e-8
            assert np.max(np.abs(line_row(head, *args[:3]))) <= 1e-10

    # a permeability contrast of 1e6 at two scales of the betas: CG stalls
    # here unless the flat inverse preconditions in double precision
    @pytest.mark.parametrize("betas", [(1.0, 1e6), (1e-3, 1e3)])
    def test_krylov_matches_direct_at_high_contrast(self, betas):
        x = nodes(32)
        args = setup(32, 16, 0.05 * np.cos(x), np.zeros(32), *betas)
        direct = solve_head(*args, solver="direct")
        krylov = solve_head(*args, solver="krylov")
        assert krylov.cg_iterations <= 20
        assert np.max(np.abs(direct.p - krylov.p)) <= 1e-8

    # beta_minus / beta_plus log-uniform over [1e-8, 1e5]: a more permeable
    # upper strip at any contrast, and a more permeable lower one up to the
    # largest contrast a run accepts (evolution.MAX_PERMEABILITY_CONTRAST)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        h_modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=3),
        f_modes=st.lists(st.tuples(st.integers(0, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), max_size=2),
        h_amp=st.floats(0.01, 0.1),
        f_amp=st.floats(0.0, 0.15),
        beta_plus=st.floats(0.1, 3.0),
        log_contrast=st.floats(-8.0, math.log10(MAX_PERMEABILITY_CONTRAST)),
        n1=st.integers(2, 16).map(lambda k: 2 * k),
        levels=st.tuples(st.integers(3, 20), st.integers(3, 20)),
    )
    def test_krylov_matches_direct_over_contrasts_property(
            self, h_modes, f_modes, h_amp, f_amp, beta_plus, log_contrast, n1, levels):
        m_plus, m_minus = levels

        def field(modes, amp):
            return PeriodicField1D.from_modes(
                n1, [(k, amp * c / max(k, 1), amp * s / max(k, 1)) for k, c, s in modes])

        h, f = field(h_modes, h_amp), field(f_modes, f_amp)
        profile = PermeabilityProfile(f, beta_plus, beta_plus * 10.0 ** log_contrast)
        args = (metric_terms(harmonic_extension(h, f, StripGrid(UPPER, n1, m_plus)), profile),
                metric_terms(harmonic_extension(h, f, StripGrid(LOWER, n1, m_minus)), profile),
                h, profile)
        # each solve passes its own residual gate, or raises
        direct = solve_head(*args, solver="direct")
        krylov = solve_head(*args, solver="krylov")
        assert np.max(np.abs(direct.p - krylov.p)) <= 1e-8

    def test_solution_as_guess_takes_no_iteration(self):
        x = nodes(64)
        args = setup(64, 17, 0.07 * np.cos(x) + 0.02 * np.sin(3 * x),
                     0.1 * np.cos(2 * x), 1.3, 0.4)
        cold = solve_head(*args, solver="krylov")
        assert cold.cg_iterations > 0
        warm = solve_head(*args, solver="krylov", guess=cold.p)
        assert warm.cg_iterations == 0
        for name in ("p", "w1", "w2"):
            diff = np.max(np.abs(getattr(warm, name) - getattr(cold, name)))
            assert diff <= 1e-12, name
        assert np.max(np.abs(warm.gamma_trace_w2 - cold.gamma_trace_w2)) <= 1e-12
        # the direct path counts no iteration and ignores the guess
        assert solve_head(*args, guess=cold.p).cg_iterations == 0

    # the ids keep the x1 stencil order (4) as their last field
    @pytest.mark.parametrize("n1, m_minus, m_plus",
                             [(4, 3, 3), (64, 3, 3), (4, 7, 4), (64, 9, 17)],
                             ids=["4-3-3-4", "64-3-3-4", "4-7-4-4", "64-9-17-4"])
    def test_flat_inverse_matches_lu(self, n1, m_minus, m_plus):
        flat = pressure._CellBalance.flat(n1, m_minus, m_plus, 1.7, 0.3)
        lu = splu(pressure._probe(flat))
        inverse = pressure._flat_inverse(n1, m_minus, m_plus, 1.7, 0.3)
        r = np.random.default_rng(n1 + m_minus + m_plus).normal(size=(flat.n_lev, n1))
        expected = lu.solve(r.ravel()).reshape(r.shape)
        assert np.max(np.abs(inverse.solve(r) - expected)) <= 1e-11 * np.max(np.abs(expected))

    # the flat balance holds its coefficients as columns that broadcast
    # along x1; it must apply bit for bit as the one built from full arrays
    @pytest.mark.parametrize("n1, m_minus, m_plus", [(4, 3, 3), (4, 7, 4), (64, 9, 17)])
    def test_flat_columns_match_full_arrays(self, n1, m_minus, m_plus):
        flat = pressure._CellBalance.flat(n1, m_minus, m_plus, 1.7, 0.3)
        assert flat.k11.shape == flat.k22.shape == (m_minus + m_plus, 1)
        full = pressure._CellBalance(
            flat.grid_minus, flat.grid_plus,
            *(np.repeat(k, n1, axis=1) for k in (flat.k11, flat.k12, flat.k22)))
        rng = np.random.default_rng(n1 * m_minus * m_plus)
        for p in rng.normal(size=(3, flat.n_lev + 1, n1)):
            assert np.array_equal(flat(p), full(p))
            x, top = p[:-1], rng.normal(size=n1)
            assert np.array_equal(flat.free_rows(x, top), full.free_rows(x, top))

    # level counts n_lev = m_minus + m_plus - 2 run from 4 to 78, odd, prime
    # and power-of-two values among them; the running products of the
    # multipliers stay above 1e-13 here, so each grid is one block
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n1=st.integers(2, 32).map(lambda k: 2 * k),
           levels=st.tuples(st.integers(3, 40), st.integers(3, 40)),
           betas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_flat_inverse_matches_lu_property(self, n1, levels, betas, seed):
        m_minus, m_plus = levels
        flat = pressure._CellBalance.flat(n1, m_minus, m_plus, *betas)
        lu = splu(pressure._probe(flat))
        inverse = pressure._flat_inverse(n1, m_minus, m_plus, *betas)
        r = np.random.default_rng(seed).normal(size=(flat.n_lev, n1))
        expected = lu.solve(r.ravel()).reshape(r.shape)
        assert np.max(np.abs(inverse.solve(r) - expected)) <= 1e-11 * np.max(np.abs(expected))

    # over 256 levels the products R of the multipliers of the highest
    # modes fall to about 1e-174: unrestarted, R^2 / u would underflow to
    # zero, and at beta 1e5 a restart that ignored u would leave it
    # subnormal, with a residual near 1e-10 (LU is too slow here to be the
    # oracle)
    @pytest.mark.parametrize("betas", [(1.0, 2.0), (1e5, 1.0)])
    def test_flat_inverse_restarts_its_products(self, betas):
        n1, m = 1024, 129
        flat = pressure._CellBalance.flat(n1, m, m, *betas)
        inverse = pressure._FlatInverse(flat)
        assert len(inverse._blocks) > 1
        r = np.random.default_rng(7).normal(size=(flat.n_lev, n1))
        x = inverse.solve(r)
        assert np.all(np.isfinite(x))
        assert np.max(np.abs(flat.free_rows(x) - r)) <= 1e-12 * np.max(np.abs(r))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        h_modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=3),
        f_modes=st.lists(st.tuples(st.integers(0, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), max_size=2),
        reach=st.floats(0.0, 0.97),
        betas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
        n1=st.integers(4, 32).map(lambda k: 2 * k),
        levels=st.tuples(st.integers(3, 17), st.integers(3, 17)),
    )
    @example(h_modes=[(1, 1.0, 0.0), (3, 0.0, 0.5)], f_modes=[(2, 1.0, 0.0)], reach=0.97,
             betas=(1.0, 2.0), n1=32, levels=(9, 9))
    def test_krylov_matches_direct_near_j_min_property(self, h_modes, f_modes, reach,
                                                       betas, n1, levels):
        # the interface amplitude runs up to 0.97 of the one at which the
        # upper strip's min J reaches j_min: J is affine in the amplitude a
        # of h, J0 + a dJ, so min J is concave in a, and at reach times that
        # amplitude it is at least (1 - reach) min J0 + reach j_min > j_min
        def field(modes, amp):
            return PeriodicField1D.from_modes(
                n1, [(k, amp * c / max(k, 1), amp * s / max(k, 1)) for k, c, s in modes])

        shape, f = field(h_modes, 1.0), field(f_modes, 0.15)
        profile = PermeabilityProfile(f, *betas)
        m_minus, m_plus = levels
        grid_p, grid_m = StripGrid(UPPER, n1, m_plus), StripGrid(LOWER, n1, m_minus)

        def jacobian(h):  # J of the upper strip, as metric_terms forms it
            delta_psi = harmonic_extension(h, f, grid_p).values
            return 1.0 + vertical_derivative(delta_psi, grid_p.dx2)

        j0 = jacobian(PeriodicField1D.zeros(n1))
        dj = jacobian(shape) - j0
        falling = dj < 0.0
        # a zero-mean h lowers J somewhere, unless its modes are too small to
        # move J at all (zero or subnormal coefficients)
        assume(np.any(falling))
        a_max = float(np.min((j0[falling] - DEFAULT_J_MIN) / -dj[falling]))
        h = PeriodicField1D(reach * a_max * shape.values)
        pack_p = metric_terms(harmonic_extension(h, f, grid_p), profile)
        pack_m = metric_terms(harmonic_extension(h, f, grid_m), profile)
        direct = solve_head(pack_p, pack_m, h, profile, solver="direct")
        krylov = solve_head(pack_p, pack_m, h, profile, solver="krylov")  # the gate passes
        assert np.max(np.abs(direct.p - krylov.p)) <= 1e-8
        assert np.max(np.abs(direct.gamma_trace_w2
                             - krylov.gamma_trace_w2)) <= 1e-8

    # the gate reads the free rows of the balance that the recovery reads;
    # a solution off by 1e-6 of its size must fail it on either path
    def test_residual_gate_rejects_a_corrupted_krylov_solve(self, monkeypatch):
        cg = pressure._cg

        def corrupted(*args, **kwargs):
            x, iterations = cg(*args, **kwargs)
            return perturbed(x), iterations

        monkeypatch.setattr(pressure, "_cg", corrupted)
        with pytest.raises(SolverDivergence, match="exceeds"):
            solve_head(*gate_problem(), solver="krylov")

    def test_residual_gate_rejects_a_corrupted_direct_solve(self, monkeypatch):
        solve_direct = pressure._solve_direct
        monkeypatch.setattr(pressure, "_solve_direct",
                            lambda *args: perturbed(solve_direct(*args)))
        with pytest.raises(SolverDivergence, match="exceeds"):
            solve_head(*gate_problem(), solver="direct")

    def test_residual_gate_rejects_a_corrupted_picard_solve(self, monkeypatch):
        picard = pressure._picard
        monkeypatch.setattr(pressure, "_picard", lambda *args: perturbed(picard(*args)))
        with pytest.raises(SolverDivergence, match="exceeds"):
            solve_head(*gate_problem(), solver="picard")

    # column colours q: n1 itself for 4, 6, 8, 10, 14; 11 for 22, 9 for 18, 16 for 64
    @pytest.mark.parametrize("n1, m_minus, m_plus",
                             [(4, 3, 17), (6, 17, 3), (8, 5, 9), (10, 9, 4), (14, 3, 3),
                              (18, 12, 7), (22, 4, 13), (64, 17, 9)])
    def test_probe_reproduces_balance(self, n1, m_minus, m_plus):
        x = nodes(n1)
        h = PeriodicField1D(0.08 * np.cos(x) + 0.03 * np.sin(x))
        f = PeriodicField1D(0.1 * np.sin(x) + 0.05 * np.cos(2 * x))
        profile = PermeabilityProfile(f, 1.3, 0.4)
        pack_p = metric_terms(harmonic_extension(h, f, StripGrid(UPPER, n1, m_plus)), profile)
        pack_m = metric_terms(harmonic_extension(h, f, StripGrid(LOWER, n1, m_minus)), profile)
        assert np.min(np.abs(pack_p.k12)) > 0.0  # sheared: every coupling present
        balance = pressure._CellBalance.from_packs(pack_m, pack_p)
        matrix = pressure._probe(balance)
        v = np.random.default_rng(n1 * m_minus * m_plus).normal(size=(balance.n_lev, n1))
        expected = balance.free_rows(v).ravel()
        assert np.max(np.abs(matrix @ v.ravel() - expected)) <= 1e-13 * np.max(np.abs(expected))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        h_modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=3),
        f_modes=st.lists(st.tuples(st.integers(0, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), max_size=2),
        betas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
        n1=st.integers(4, 16).map(lambda k: 2 * k),
        levels=st.tuples(st.integers(3, 9), st.integers(3, 9)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_head_operator_symmetric_positive_property(self, h_modes, f_modes, betas,
                                                         n1, levels, seed):
        # per-mode amplitude 0.1 / k for h and 0.15 / k for f, as in the
        # Krylov property test; a sheared metric makes every k12 term count
        def field(modes, amp):
            return PeriodicField1D.from_modes(
                n1, [(k, amp * c / max(k, 1), amp * s / max(k, 1)) for k, c, s in modes]
            )

        h, f = field(h_modes, 0.1), field(f_modes, 0.15)
        profile = PermeabilityProfile(f, *betas)
        m_minus, m_plus = levels
        pack_p = metric_terms(harmonic_extension(h, f, StripGrid(UPPER, n1, m_plus)), profile)
        pack_m = metric_terms(harmonic_extension(h, f, StripGrid(LOWER, n1, m_minus)), profile)
        matrix = pressure._probe(pressure._CellBalance.from_packs(pack_m, pack_p))
        scale = abs(matrix).max()
        assert abs(matrix - matrix.T).max() <= 1e-13 * scale
        for v in np.random.default_rng(seed).normal(size=(4, matrix.shape[0])):
            assert v @ (matrix @ v) > 0.0

    def test_krylov_failure_raises_without_fallback(self, monkeypatch):
        x = nodes(64)
        args = setup(64, 17, 0.02 * np.cos(x), 0.05 * np.cos(2 * x), 1.0, 0.5)
        monkeypatch.setattr(pressure, "KRYLOV_MAXITER", 1)
        with pytest.raises(SolverDivergence, match="stalled"):
            solve_head(*args, solver="krylov")
        # an indefinite operator has p.Lp < 0 on the first direction
        with pytest.raises(NonSPDSystem):
            pressure._cg(lambda v: -v, np.array([[1.0, 0.0]]), lambda r: r, 1e-12)

    def test_cg_starts_from_x0(self):
        # CG takes 2-D arrays, as the free unknowns are: here one column
        matrix = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        b = np.array([[1.0], [2.0], [3.0]])
        exact = np.linalg.solve(matrix, b)
        x, iterations = pressure._cg(lambda v: matrix @ v, b, lambda r: r, 1e-14)
        assert 1 <= iterations <= 3
        assert np.max(np.abs(x - exact)) <= 1e-13
        # the stopping test stays relative to |b|: a start that meets it
        # returns at once, and the start is not written to
        x0 = exact.copy()
        x, iterations = pressure._cg(lambda v: matrix @ v, b, lambda r: r, 1e-14, x0)
        assert iterations == 0
        assert np.array_equal(x, exact) and np.array_equal(x0, exact)
        assert not np.shares_memory(x, x0)
        # a start worse than zero is dropped: from 1e20 times the solution
        # the residual b - L x0 would be roundoff of order 1e4 |b|
        x, iterations = pressure._cg(lambda v: matrix @ v, b, lambda r: r, 1e-14,
                                     1e20 * exact)
        assert 1 <= iterations <= 3
        assert np.max(np.abs(x - exact)) <= 1e-13
        # so is a start that overflowed, as a guess scaled by 1 / max|h| does
        # for a subnormal h, and one whose residual overflows
        for x0 in (np.array([[np.inf], [1.0], [-np.inf]]), np.full((3, 1), 1e308)):
            x, iterations = pressure._cg(lambda v: matrix @ v, b, lambda r: r, 1e-14, x0)
            assert 1 <= iterations <= 3
            assert np.max(np.abs(x - exact)) <= 1e-13

    def test_unknown_solver_rejected(self):
        args = setup(32, 9, np.zeros(32), np.zeros(32), 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_head(*args, solver="magic")


class TestWorkBuffers:
    """The balance keeps work buffers across calls and the flat inverse its
    factors; what they return must be new arrays.  CG keeps x, r and p in
    arrays of its own, updated in place, and reads each z and lp only
    within the iteration that made them; but _recover holds d1p across a
    second apply, and the callers of solve_head keep the heads it
    returns."""

    def test_balance_returns_unaliased_arrays(self):
        x = nodes(16)
        h = PeriodicField1D(0.08 * np.cos(x) + 0.03 * np.sin(x))
        f = PeriodicField1D(0.1 * np.sin(x) + 0.05 * np.cos(2 * x))
        profile = PermeabilityProfile(f, 1.3, 0.4)
        pack_p = metric_terms(harmonic_extension(h, f, StripGrid(UPPER, 16, 7)), profile)
        pack_m = metric_terms(harmonic_extension(h, f, StripGrid(LOWER, 16, 5)), profile)
        balance = pressure._CellBalance.from_packs(pack_m, pack_p)
        p = np.random.default_rng(3).normal(size=(balance.n_lev + 1, 16))
        p_before = p.copy()
        first, second = balance(p), balance(p)
        assert np.array_equal(first, second)
        assert np.array_equal(p, p_before)
        buffers = (p, balance._padded, balance._scratch, balance._face)
        for buffer in (second,) + buffers:
            assert not np.shares_memory(first, buffer)
        for buffer in buffers:
            assert not np.shares_memory(second, buffer)

    def test_flat_inverse_returns_unaliased_arrays(self):
        inverse = pressure._flat_inverse(16, 5, 7, 1.3, 0.4)
        kept = [v for v in vars(inverse).values() if isinstance(v, np.ndarray)]
        kept_before = [v.copy() for v in kept]
        r = np.random.default_rng(4).normal(size=(10, 16))
        r_before = r.copy()
        first, second = inverse.solve(r), inverse.solve(r)
        assert np.array_equal(first, second)
        assert np.array_equal(r, r_before)
        for before, after in zip(kept_before, kept):
            assert np.array_equal(before, after)
        for buffer in [second, r] + kept:
            assert not np.shares_memory(first, buffer)
        for buffer in [r] + kept:
            assert not np.shares_memory(second, buffer)

    @pytest.mark.parametrize("n1, m_minus, m_plus", [(4, 3, 3), (16, 5, 7), (64, 9, 17)])
    def test_x1_difference_matches_the_stencil_bit_for_bit(self, n1, m_minus, m_plus):
        balance = pressure._CellBalance.flat(n1, m_minus, m_plus, 1.0, 1.0)
        for v in np.random.default_rng(n1).normal(size=(3, balance.n_lev + 1, n1)):
            w = np.concatenate([v[:, -2:], v, v[:, :2]], axis=1)
            expected = ((w[:, :-4] - w[:, 4:]) + 8.0 * (w[:, 3:-1] - w[:, 1:-3])) \
                / (12.0 * balance.dx1)
            assert np.array_equal(balance._x1_difference(v), expected)


class TestDataScaling:
    def test_subnormal_interface_data(self):
        # solve_head solves for h / max|h| and rescales; solved for h itself,
        # gradual underflow in the right side fails the direct residual gate
        n1 = 32
        x = nodes(n1)
        tiny = 2.2e-313
        pack_p, pack_m, h, profile = setup(n1, 9, tiny * np.sin(x), np.zeros(n1), 1.0, 1.0)
        unit = solve_head(pack_p, pack_m, PeriodicField1D(np.sin(x)), profile)
        for solver in ("direct", "krylov"):
            head = solve_head(pack_p, pack_m, h, profile, solver=solver)
            for name in ("p", "w2"):
                scaled = getattr(head, name) / tiny
                assert np.max(np.abs(scaled - getattr(unit, name))) <= 1e-8, name
            scaled = head.gamma_trace_w2 / tiny
            assert np.max(np.abs(scaled - unit.gamma_trace_w2)) <= 1e-8

    @pytest.mark.parametrize("solver", ["direct", "krylov", "picard"])
    def test_zero_interface_gives_exact_zero(self, solver):
        x = nodes(32)
        head = solve_head(*setup(32, 9, np.zeros(32), 0.2 * np.cos(x), 1.0, 0.3),
                          solver=solver)
        assert w_max(head) == 0.0
        assert not np.any(head.p)
        assert not np.any(head.gamma_trace_w2)
        assert head.top_flux_total == 0.0
        assert head.dissipation == 0.0


class TestErrorPaths:
    def test_resolution_mismatch(self):
        pack_p, pack_m, h, profile = setup(32, 9, np.zeros(32), np.zeros(32), 1.0, 1.0)
        with pytest.raises(ResolutionMismatch):
            solve_head(pack_p, pack_m, PeriodicField1D.zeros(64), profile)

    def test_swapped_strips_rejected(self):
        pack_p, pack_m, h, profile = setup(32, 9, np.zeros(32), np.zeros(32), 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_head(pack_m, pack_p, h, profile)

    def test_degenerate_pack_rejected(self):
        pack_p, pack_m, h, profile = setup(32, 9, np.zeros(32), np.zeros(32), 1.0, 1.0)
        bad_j = pack_p.J.copy()
        bad_j[0, 0] = -0.5
        with pytest.raises(NonSPDSystem):
            solve_head(replace(pack_p, J=bad_j), pack_m, h, profile)
