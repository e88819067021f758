import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from muskat import pressure
from muskat.diffeo import (
    LOWER,
    UPPER,
    MetricPack,
    PermeabilityProfile,
    StripField,
    StripGrid,
    harmonic_extension,
    metric_terms,
    vertical_derivative,
)
from muskat.diagnostics import dispersion_rate, dissipation_l2
from muskat.errors import (
    NoContraction,
    NonSPDSystem,
    ResolutionMismatch,
    SolverDivergence,
)
from muskat.pressure import picard_head, solve_head
from muskat.spectral_core import PeriodicField1D, x1_derivative


def setup(n1, n2, h_vals, f_vals, beta_plus, beta_minus):
    h = PeriodicField1D(h_vals)
    f = PeriodicField1D(f_vals)
    profile = PermeabilityProfile(f, beta_plus, beta_minus)
    grid_p = StripGrid(UPPER, n1, n2)
    grid_m = StripGrid(LOWER, n1, n2)
    pack_p = metric_terms(harmonic_extension(h, f, grid_p), profile)
    pack_m = metric_terms(harmonic_extension(h, f, grid_m), profile)
    return pack_p, pack_m, h, profile


def w_max(head):
    return max(float(np.max(np.abs(s.values))) for s in
               (head.w1_plus, head.w2_plus, head.w1_minus, head.w2_minus))


class TestRestStates:
    def test_flat_everything(self):
        head = solve_head(*setup(64, 17, np.zeros(64), np.zeros(64), 1.0, 1.0))
        assert w_max(head) <= 1e-12
        assert np.max(np.abs(head.p_plus.values)) <= 1e-12
        assert np.max(np.abs(head.p_minus.values)) <= 1e-12

    def test_flat_interface_any_permeability_curve(self):
        x = PeriodicField1D.zeros(64).x1
        head = solve_head(*setup(64, 17, np.zeros(64), 0.2 * np.cos(x), 1.0, 0.3))
        assert w_max(head) <= 1e-12
        assert np.max(np.abs(head.gamma_trace_w2.values)) <= 1e-13


class TestSingleModeOracle:
    @pytest.mark.parametrize("beta", [(1.0, 1.0), (1.0, 0.1), (0.1, 1.0)])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_trace_matches_linearized_rate(self, beta, k):
        n1, n2 = 128, 64
        x = PeriodicField1D.zeros(n1).x1
        eps = 1e-4
        pack_p, pack_m, h, profile = setup(
            n1, n2, eps * np.cos(k * x), np.zeros(n1), *beta)
        head = solve_head(pack_p, pack_m, h, profile)
        sigma = dispersion_rate(k, profile)
        mode = np.cos(k * x)
        measured = np.dot(head.gamma_trace_w2.values, mode) / np.dot(eps * mode, mode)
        assert measured == pytest.approx(sigma, rel=1e-2)

    def test_equal_betas_match_merged_single_layer(self):
        # with beta+ = beta- the two-strip solve must reproduce the depth-2
        # single-layer rate -beta k tanh(2k)
        n1, n2 = 128, 64
        x = PeriodicField1D.zeros(n1).x1
        eps = 1e-4
        beta = 0.7
        pack_p, pack_m, h, profile = setup(
            n1, n2, eps * np.cos(2 * x), np.zeros(n1), beta, beta)
        head = solve_head(pack_p, pack_m, h, profile)
        mode = np.cos(2 * x)
        measured = np.dot(head.gamma_trace_w2.values, mode) / np.dot(eps * mode, mode)
        assert measured == pytest.approx(-beta * 2 * math.tanh(4.0), rel=1e-2)


class TestConservation:
    def test_zero_total_top_flux(self):
        rng = np.random.default_rng(20)
        x = PeriodicField1D.zeros(64).x1
        h_vals = 0.05 * np.cos(x) + 0.02 * np.sin(2 * x)
        f_vals = 0.1 * np.cos(x) + 0.03 * np.sin(3 * x)
        head = solve_head(*setup(64, 33, h_vals, f_vals, 1.0, 0.5))
        assert abs(head.top_flux_total) <= 1e-12

    def test_interface_flux_continuity_exact(self):
        x = PeriodicField1D.zeros(64).x1
        head = solve_head(*setup(64, 33, 0.05 * np.cos(x), 0.1 * np.sin(x), 1.0, 0.25))
        mismatch = np.max(np.abs(head.perm_flux_above.values
                                 - head.perm_flux_below.values))
        assert mismatch <= 1e-11

    def test_one_sided_flux_jump_second_order(self):
        # pointwise flux continuity, recomputed with one-sided 3-point
        # stencils from each strip, converges at the vertical truncation order
        x = PeriodicField1D.zeros(64).x1
        jumps = {}
        for n2 in (17, 33, 65):
            pack_p, pack_m, h, profile = setup(
                64, n2, 0.05 * np.cos(x), 0.1 * np.sin(x), 1.0, 0.25)
            head = solve_head(pack_p, pack_m, h, profile)
            d = 1.0 / (n2 - 1)
            pm, pp = head.p_minus.values, head.p_plus.values
            dp2_below = (3 * pm[:, -1] - 4 * pm[:, -2] + pm[:, -3]) / (2 * d)
            dp2_above = (-3 * pp[:, 0] + 4 * pp[:, 1] - pp[:, 2]) / (2 * d)
            dp1 = x1_derivative(pp)[:, 0]
            flux_below = pack_m.k12[:, -1] * dp1 + pack_m.k22[:, -1] * dp2_below
            flux_above = pack_p.k12[:, 0] * dp1 + pack_p.k22[:, 0] * dp2_above
            jumps[n2] = np.max(np.abs(flux_above - flux_below))
        assert math.log2(jumps[17] / jumps[33]) >= 1.5
        assert math.log2(jumps[33] / jumps[65]) >= 1.5

    def test_floor_flux_vanishes_with_refinement(self):
        x = PeriodicField1D.zeros(64).x1
        vals = {}
        for n2 in (17, 33):
            head = solve_head(*setup(64, n2, 0.05 * np.cos(x), 0.1 * np.cos(2 * x),
                                     1.0, 0.5))
            vals[n2] = np.max(np.abs(head.w2_minus.values[:, 0]))
        assert math.log2(vals[17] / vals[33]) >= 1.5

    def test_interior_divergence_truncation_order(self):
        x = PeriodicField1D.zeros(64).x1
        res = {}
        for n2 in (17, 33):
            pack_p, pack_m, h, profile = setup(
                64, n2, 0.04 * np.cos(x), 0.08 * np.sin(x), 1.0, 0.5)
            head = solve_head(pack_p, pack_m, h, profile)
            div = x1_derivative(head.w1_plus.values) \
                + vertical_derivative(head.w2_plus.values, pack_p.grid.dx2)
            res[n2] = np.max(np.abs(div[:, 2:-2]))
        assert math.log2(res[17] / res[33]) >= 1.5


class TestSymmetryAndPositivity:
    def test_reflection_equivariance(self):
        # even h, f: P even and w1 odd under x1 -> -x1
        n1 = 64
        x = PeriodicField1D.zeros(n1).x1
        head = solve_head(*setup(n1, 17, 0.05 * np.cos(x), 0.1 * np.cos(2 * x),
                                 1.0, 0.5))
        refl = (-np.arange(n1)) % n1
        assert np.max(np.abs(head.p_plus.values - head.p_plus.values[refl, :])) < 1e-12
        assert np.max(np.abs(head.w1_plus.values + head.w1_plus.values[refl, :])) < 1e-12
        assert np.max(np.abs(head.w2_minus.values - head.w2_minus.values[refl, :])) < 1e-12

    def test_dissipation_nonnegative(self):
        rng = np.random.default_rng(21)
        x = PeriodicField1D.zeros(32).x1
        for _ in range(3):
            h_vals = 0.1 * rng.normal() * np.cos(x) + 0.05 * rng.normal() * np.sin(2 * x)
            f_vals = 0.1 * rng.normal() * np.cos(x)
            pack_p, pack_m, h, profile = setup(32, 9, h_vals, f_vals, 1.3, 0.4)
            head = solve_head(pack_p, pack_m, h, profile)
            assert dissipation_l2(head, pack_p, pack_m) >= 0.0


class TestPicard:
    def test_rest_state_converges_immediately(self):
        head = picard_head(*setup(32, 9, np.zeros(32), np.zeros(32), 1.0, 1.0))
        assert w_max(head) <= 1e-12

    def test_agrees_with_direct_in_small_regime(self):
        x = PeriodicField1D.zeros(64).x1
        args = setup(64, 33, 0.005 * np.cos(x), 0.02 * np.cos(2 * x), 1.0, 0.5)
        tol = 1e-10
        direct = solve_head(*args)
        fixed = picard_head(*args, tol=tol)
        diff = max(
            np.max(np.abs(direct.p_plus.values - fixed.p_plus.values)),
            np.max(np.abs(direct.p_minus.values - fixed.p_minus.values)),
        )
        assert diff <= 10 * tol

    def test_diverges_at_large_amplitude_while_direct_succeeds(self):
        x = PeriodicField1D.zeros(64).x1
        args = setup(64, 17, 0.55 * np.cos(x), np.zeros(64), 1.0, 1.0)
        assert np.min(args[0].J) < 0.45  # well outside the contraction regime
        solve_head(*args)  # direct path is fine
        with pytest.raises(NoContraction):
            picard_head(*args)


class TestSolverOptions:
    def test_krylov_matches_direct(self):
        x = PeriodicField1D.zeros(64).x1
        args = setup(64, 17, 0.02 * np.cos(x), 0.05 * np.cos(2 * x), 1.0, 0.5)
        direct = solve_head(*args, solver="direct")
        krylov = solve_head(*args, solver="krylov")
        assert np.max(np.abs(direct.p_plus.values - krylov.p_plus.values)) < 1e-8
        assert np.max(np.abs(direct.p_minus.values - krylov.p_minus.values)) < 1e-8
        assert np.max(np.abs(direct.gamma_trace_w2.values
                             - krylov.gamma_trace_w2.values)) < 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        h_modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=3),
        f_modes=st.lists(st.tuples(st.integers(0, 4), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), max_size=2),
        h_amp=st.floats(0.0, 0.1),
        f_amp=st.floats(0.0, 0.15),
        betas=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    )
    def test_krylov_matches_direct_property(self, h_modes, f_modes, h_amp, f_amp, betas):
        # per-mode amplitude amp / k keeps every slope below amp, far from a
        # degenerate strip map
        n1 = 32

        def field(modes, amp):
            return PeriodicField1D.from_modes(
                n1, [(k, amp * c / max(k, 1), amp * s / max(k, 1)) for k, c, s in modes]
            ).values

        args = setup(n1, 9, field(h_modes, h_amp), field(f_modes, f_amp), *betas)
        direct = solve_head(*args, solver="direct")
        krylov = solve_head(*args, solver="krylov")
        for name in ("p_plus", "p_minus", "gamma_trace_w2"):
            diff = np.max(np.abs(getattr(direct, name).values - getattr(krylov, name).values))
            assert diff <= 1e-8, name
        assert abs(direct.top_flux_total - krylov.top_flux_total) <= 1e-8

    # the ids keep the x1 stencil order (4) as their last field
    @pytest.mark.parametrize("n1, m_minus, m_plus",
                             [(4, 3, 3), (64, 3, 3), (4, 7, 4), (64, 9, 17)],
                             ids=["4-3-3-4", "64-3-3-4", "4-7-4-4", "64-9-17-4"])
    def test_flat_inverse_matches_lu(self, n1, m_minus, m_plus):
        flat = pressure._CellBalance.flat(n1, m_minus, m_plus, 1.7, 0.3)
        lu = splu(pressure._probe(flat))
        inverse = pressure._flat_inverse(n1, m_minus, m_plus, 1.7, 0.3)
        r = np.random.default_rng(n1 + m_minus + m_plus).normal(size=n1 * flat.n_lev)
        expected = lu.solve(r)
        assert np.max(np.abs(inverse.solve(r) - expected)) <= 1e-11 * np.max(np.abs(expected))

    # column colours q: n1 itself for 4, 6, 8, 10, 14; 11 for 22, 9 for 18, 16 for 64
    @pytest.mark.parametrize("n1, m_minus, m_plus",
                             [(4, 3, 17), (6, 17, 3), (8, 5, 9), (10, 9, 4), (14, 3, 3),
                              (18, 12, 7), (22, 4, 13), (64, 17, 9)])
    def test_probe_reproduces_balance(self, n1, m_minus, m_plus):
        x = PeriodicField1D.zeros(n1).x1
        h = PeriodicField1D(0.08 * np.cos(x) + 0.03 * np.sin(x))
        f = PeriodicField1D(0.1 * np.sin(x) + 0.05 * np.cos(2 * x))
        profile = PermeabilityProfile(f, 1.3, 0.4)
        pack_p = metric_terms(harmonic_extension(h, f, StripGrid(UPPER, n1, m_plus)), profile)
        pack_m = metric_terms(harmonic_extension(h, f, StripGrid(LOWER, n1, m_minus)), profile)
        assert np.min(np.abs(pack_p.k12)) > 0.0  # sheared: every coupling present
        balance = pressure._CellBalance.from_packs(pack_m, pack_p)
        matrix = pressure._probe(balance)
        v = np.random.default_rng(n1 * m_minus * m_plus).normal(size=matrix.shape[0])
        expected = balance.free_rows(v)
        assert np.max(np.abs(matrix @ v - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_krylov_failure_raises_without_fallback(self, monkeypatch):
        x = PeriodicField1D.zeros(64).x1
        args = setup(64, 17, 0.02 * np.cos(x), 0.05 * np.cos(2 * x), 1.0, 0.5)
        monkeypatch.setattr(pressure, "KRYLOV_MAXITER", 1)
        with pytest.raises(SolverDivergence, match="stalled"):
            solve_head(*args, solver="krylov")
        # b . (A b) = 0 for a skew matrix: the first step breaks down
        skew = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(SolverDivergence, match="broke down"):
            pressure._bicgstab(lambda v: skew @ v, np.array([1.0, 0.0]), lambda r: r, 1e-12)

    def test_unknown_solver_rejected(self):
        args = setup(32, 9, np.zeros(32), np.zeros(32), 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_head(*args, solver="magic")


class TestDataScaling:
    def test_subnormal_interface_data(self):
        # solve_head solves for h / max|h| and rescales; solved for h itself,
        # gradual underflow in the right side fails the direct residual gate
        n1 = 32
        x = PeriodicField1D.zeros(n1).x1
        tiny = 2.2e-313
        pack_p, pack_m, h, profile = setup(n1, 9, tiny * np.sin(x), np.zeros(n1), 1.0, 1.0)
        unit = solve_head(pack_p, pack_m, PeriodicField1D(np.sin(x)), profile)
        for solver in ("direct", "krylov"):
            head = solve_head(pack_p, pack_m, h, profile, solver=solver)
            for name in ("p_plus", "p_minus", "w2_plus", "gamma_trace_w2"):
                scaled = getattr(head, name).values / tiny
                assert np.max(np.abs(scaled - getattr(unit, name).values)) <= 1e-8, name

    @pytest.mark.parametrize("solver", ["direct", "krylov"])
    def test_zero_interface_gives_exact_zero(self, solver):
        x = PeriodicField1D.zeros(32).x1
        head = solve_head(*setup(32, 9, np.zeros(32), 0.2 * np.cos(x), 1.0, 0.3),
                          solver=solver)
        assert w_max(head) == 0.0
        for field in (head.p_plus, head.p_minus, head.gamma_trace_w2,
                      head.perm_flux_above, head.perm_flux_below):
            assert not np.any(field.values)
        assert head.top_flux_total == 0.0


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
        bad = MetricPack(pack_p.grid, pack_p.beta, pack_p.delta_psi, pack_p.d1,
                         pack_p.d2, bad_j, pack_p.k11, pack_p.k12, pack_p.k22)
        with pytest.raises(NonSPDSystem):
            solve_head(bad, pack_m, h, profile)
