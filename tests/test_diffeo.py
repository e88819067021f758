import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muskat import diffeo
from muskat.diffeo import (
    LOWER,
    UPPER,
    PermeabilityProfile,
    StripField,
    StripGrid,
    harmonic_extension,
    metric_terms,
    piola_divergence,
    vertical_derivative,
    vertical_derivative_exact,
)
from muskat.errors import DiffeoDegenerate, ResolutionMismatch
from muskat.spectral_core import PeriodicField1D, nodes, x1_derivative


def cos_field(n, k=1, amp=1.0):
    x = nodes(n)
    return PeriodicField1D(amp * np.cos(k * x))


def random_traces(n, rng, amp=0.1, kmax=5):
    x = nodes(n)
    h = np.zeros(n)
    f = np.zeros(n)
    for k in range(1, kmax + 1):
        h += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
        f += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
    h *= amp / max(1.0, np.max(np.abs(h)))
    f *= amp / max(1.0, np.max(np.abs(f)))
    return PeriodicField1D(h), PeriodicField1D(f)


class TestHarmonicExtension:
    def test_zero_data_zero_extension(self):
        z = PeriodicField1D.zeros(32)
        for strip in (UPPER, LOWER):
            ext = harmonic_extension(z, z, StripGrid(strip, 32, 9))
            assert np.all(ext.values == 0.0)

    def test_single_mode_closed_form_upper(self):
        # separation of variables: cos(x1) * sinh(x2+1)/sinh(1)
        n = 64
        grid = StripGrid(UPPER, n, 33)
        h = cos_field(n)
        ext = harmonic_extension(h, PeriodicField1D.zeros(n), grid)
        exact = np.sinh(grid.x2 + 1.0)[:, None] * np.cos(nodes(h.n))[None, :] / math.sinh(1.0)
        assert np.max(np.abs(ext.values - exact)) < 1e-13

    def test_single_mode_point_value(self):
        # frozen value at (x1, x2) = (0, -0.5): sinh(0.5)/sinh(1)
        n = 64
        grid = StripGrid(UPPER, n, 33)
        ext = harmonic_extension(cos_field(n), PeriodicField1D.zeros(n), grid)
        j0 = n // 2  # x1 = 0 node
        assert grid.x2[16] == pytest.approx(-0.5)
        assert ext.values[16, j0] == pytest.approx(
            math.sinh(0.5) / math.sinh(1.0), abs=1e-14)

    def test_constant_f_lower_strip_linear(self):
        n = 32
        grid = StripGrid(LOWER, n, 17)
        f = PeriodicField1D(np.full(n, 0.25))
        ext = harmonic_extension(PeriodicField1D.zeros(n), f, grid)
        exact = 0.25 * (grid.x2 + 2.0)
        assert np.max(np.abs(ext.values - exact[:, None])) < 1e-14

    def test_discrete_laplacian_residual_second_order(self):
        # the stated oracle: substitute into a finite-difference Laplacian
        n = 64
        h = cos_field(n, k=2, amp=0.5)
        f = cos_field(n, k=1, amp=0.3)
        res = {}
        for n2 in (17, 33):
            ext = harmonic_extension(h, f, StripGrid(UPPER, n, n2))
            v = ext.values
            d11 = x1_derivative(v, order=2)[1:-1]
            d22 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / ext.grid.dx2 ** 2
            res[n2] = np.max(np.abs(d11 + d22))
        order = math.log2(res[17] / res[33])
        assert order >= 1.9

    def test_maximum_principle(self):
        rng = np.random.default_rng(10)
        h, f = random_traces(64, rng)
        for strip in (UPPER, LOWER):
            ext = harmonic_extension(h, f, StripGrid(strip, 64, 21))
            if strip == UPPER:
                lo = min(h.values.min(), f.values.min())
                hi = max(h.values.max(), f.values.max())
            else:
                lo = min(0.0, f.values.min())
                hi = max(0.0, f.values.max())
            assert ext.values.min() >= lo - 1e-12
            assert ext.values.max() <= hi + 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(11)
        h1, f1 = random_traces(32, rng)
        h2, f2 = random_traces(32, rng)
        grid = StripGrid(UPPER, 32, 11)
        a = 1.7
        combo = harmonic_extension(
            PeriodicField1D(a * h1.values + h2.values),
            PeriodicField1D(a * f1.values + f2.values), grid)
        parts = a * harmonic_extension(h1, f1, grid).values \
            + harmonic_extension(h2, f2, grid).values
        assert np.max(np.abs(combo.values - parts)) < 1e-13

    def test_resolution_mismatch(self):
        with pytest.raises(ResolutionMismatch):
            harmonic_extension(cos_field(32), PeriodicField1D.zeros(64),
                               StripGrid(UPPER, 32, 9))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        half_n1=st.integers(2, 32),
        n2=st.integers(3, 40),
        h_modes=st.lists(st.tuples(st.integers(0, 32), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=4),
        f_modes=st.lists(st.tuples(st.integers(0, 32), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=1, max_size=4),
    )
    def test_boundary_traces_reproduced(self, half_n1, n2, h_modes, f_modes):
        # row m is level x2_m from the strip bottom up: the first row is the
        # bottom trace and the last the top one, which a transposed
        # extension fails even on a square grid
        n1 = 2 * half_n1

        def field(modes):
            return PeriodicField1D.from_modes(
                n1, [(k % (half_n1 + 1), c, s) for k, c, s in modes])

        h, f = field(h_modes), field(f_modes)
        up = harmonic_extension(h, f, StripGrid(UPPER, n1, n2))
        low = harmonic_extension(h, f, StripGrid(LOWER, n1, n2))
        assert up.values.shape == low.values.shape == (n2, n1)
        assert np.allclose(up.values[0], f.values, rtol=0.0, atol=1e-12)
        assert np.allclose(up.values[-1], h.values, rtol=0.0, atol=1e-12)
        assert np.allclose(low.values[0], 0.0, rtol=0.0, atol=1e-15)
        assert np.allclose(low.values[-1], f.values, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_profiles_cached_per_grid_read_only(self, derivative):
        # equal grids share one set of tables, the tables an uncached
        # computation gives, and no caller can write to them
        tables = diffeo._extension_profiles(StripGrid(LOWER, 32, 9), derivative)
        assert diffeo._extension_profiles(StripGrid(LOWER, 32, 9), derivative) is tables
        fresh = diffeo._extension_profiles.__wrapped__(StripGrid(LOWER, 32, 9), derivative)
        for table, expected in zip(tables, fresh):
            assert np.array_equal(table, expected)
            with pytest.raises(ValueError):
                table[0] = 0.0
        assert diffeo._extension_profiles(StripGrid(UPPER, 32, 9), derivative) is not tables


def linear_shift_pack(slope, beta=1.0, n1=16, n2=5):
    # delta_psi = slope (x2 + 1) on the upper strip: d1 = 0 and d2 = slope
    # (the differences are exact on a linear shift), so J = 1 + slope
    grid = StripGrid(UPPER, n1, n2)
    shift = StripField(grid, slope * (grid.x2 + 1.0)[:, None] * np.ones((1, n1)))
    return metric_terms(shift, PermeabilityProfile(PeriodicField1D.zeros(n1), beta, beta))


class TestMetricTerms:
    def test_identity_map(self):
        pack = linear_shift_pack(0.0, beta=2.0)
        assert np.all(pack.k11 == 2.0) and np.all(pack.k22 == 2.0)
        assert np.all(pack.k12 == 0.0)

    def test_vertical_stretch(self):
        # d2 = 1: J = 2, K = beta [[2,0],[0,1/2]]
        pack = linear_shift_pack(1.0, beta=3.0)
        assert np.allclose(pack.k11, 6.0, rtol=1e-13) and np.allclose(pack.k22, 1.5)
        assert np.allclose(pack.k12, 0.0)

    def test_horizontal_shear(self):
        # delta_psi = sin x1: d1 = cos x1 and d2 = 0, so J = 1 and
        # K = beta [[1, -cos x1], [-cos x1, 1 + cos^2 x1]]
        grid = StripGrid(UPPER, 16, 5)
        c = np.cos(nodes(16))[None, :]
        shift = StripField(grid, np.tile(np.sin(nodes(16)), (5, 1)))
        pack = metric_terms(shift, PermeabilityProfile(PeriodicField1D.zeros(16), 2.0, 2.0))
        assert np.allclose(pack.k11, 2.0, atol=1e-14)
        assert np.allclose(pack.k12, -2.0 * c, atol=1e-14)
        assert np.allclose(pack.k22, 2.0 * (1.0 + c ** 2), atol=1e-14)

    def test_det_k_equals_beta_squared(self):
        rng = np.random.default_rng(13)
        h, f = random_traces(32, rng, amp=0.2)
        profile = PermeabilityProfile(f, 1.5, 0.5)
        for strip in (UPPER, LOWER):
            grid = StripGrid(strip, 32, 9)
            pack = metric_terms(harmonic_extension(h, f, grid), profile)
            det = pack.k11 * pack.k22 - pack.k12 ** 2
            assert np.allclose(det, pack.beta ** 2, rtol=1e-12)

    def test_degenerate_map_raises(self):
        grid = StripGrid(UPPER, 16, 9)
        vals = -0.95 * (grid.x2 + 1.0)[:, None] * np.ones((1, 16))
        with pytest.raises(DiffeoDegenerate):
            metric_terms(StripField(grid, vals),
                         PermeabilityProfile(PeriodicField1D.zeros(16), 1.0, 1.0))

    def test_fd_gradient_of_linear_shift_is_exact(self):
        # k11 = beta J with J - 1 = d2 = 0.4, and k12 = -beta d1 with d1 = 0
        pack = linear_shift_pack(0.4, n2=7)
        assert np.allclose(pack.k11 - 1.0, 0.4, atol=1e-13)
        assert np.allclose(pack.k12, 0.0, atol=1e-13)


class TestPiola:
    def test_same_stencil_divergence_at_roundoff(self):
        # d1 spectral and d2 by differences commute exactly on the grid
        h = cos_field(64, k=1, amp=0.1)
        f = PeriodicField1D(0.1 * np.sin(nodes(64)))
        for strip in (UPPER, LOWER):
            grid = StripGrid(strip, 64, 33)
            shift = harmonic_extension(h, f, grid)
            d2 = vertical_derivative(shift.values, grid.dx2)
            assert np.max(np.abs(piola_divergence(shift, d2))) < 1e-11

    def test_analytic_gradient_divergence_second_order(self):
        # with the exact vertical derivative as d2, the discrete divergence
        # exposes the x2 truncation gap at second order
        h = cos_field(64, k=1, amp=0.1)
        f = PeriodicField1D(0.1 * np.sin(nodes(64)))
        res = {}
        for n2 in (17, 33, 65):
            grid = StripGrid(UPPER, 64, n2)
            d2 = vertical_derivative_exact(h, f, grid).values
            res[n2] = np.max(np.abs(piola_divergence(harmonic_extension(h, f, grid), d2)))
        assert math.log2(res[17] / res[33]) >= 1.9
        assert math.log2(res[33] / res[65]) >= 1.9


class TestStripTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            StripGrid("middle", 16, 9)
        with pytest.raises(ValueError):
            StripGrid(UPPER, 15, 9)
        with pytest.raises(ValueError):
            StripGrid(UPPER, 16, 2)

    def test_field_shape_checked(self):
        # (n2, n1) rows: a short array and the transposed (n1, n2) one fail
        for shape in ((8, 16), (16, 9)):
            with pytest.raises(ResolutionMismatch):
                StripField(StripGrid(UPPER, 16, 9), np.zeros(shape))

    def test_field_values_must_be_finite(self):
        for bad in (np.nan, np.inf):
            values = np.zeros((9, 16))
            values[4, 7] = bad
            with pytest.raises(ValueError, match="finite"):
                StripField(StripGrid(UPPER, 16, 9), values)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            PermeabilityProfile(PeriodicField1D.zeros(8), -1.0, 1.0)
        with pytest.raises(ValueError):
            PermeabilityProfile(PeriodicField1D(np.full(8, -1.5)), 1.0, 1.0)
        for betas in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                PermeabilityProfile(PeriodicField1D.zeros(8), *betas)
