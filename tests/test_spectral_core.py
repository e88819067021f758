import numpy as np
import pytest

from muskat.errors import ResolutionMismatch
from muskat.spectral_core import (
    PeriodicField1D,
    deriv,
    mean,
    nodes,
    project_zero_mean,
    sobolev_norm,
    x1_derivative,
)


def field(fn, n=64):
    x = nodes(n)
    return PeriodicField1D(fn(x))


def random_bandlimited(n, kmax, rng):
    x = nodes(n)
    vals = np.zeros(n)
    for k in range(1, kmax + 1):
        vals += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
    return PeriodicField1D(vals)


class TestPeriodicField:
    def test_round_trip_nodal_spectral_nodal(self):
        rng = np.random.default_rng(0)
        h = random_bandlimited(128, 40, rng)
        back = PeriodicField1D.from_coeffs(h.coeffs, h.n)
        tol = 10 * np.finfo(float).eps * np.max(np.abs(h.values))
        assert np.max(np.abs(back.values - h.values)) <= tol

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(1)
        h = random_bandlimited(64, 20, rng)
        full = np.fft.fft(h.values) / h.n
        assert np.allclose(full[1:], np.conj(full[1:][::-1]), atol=1e-14)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            PeriodicField1D(np.zeros(7))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PeriodicField1D(np.array([0.0, np.nan, 0.0, 0.0]))


class TestDeriv:
    def test_cos_to_minus_sin(self):
        h = field(np.cos)
        x = nodes(h.n)
        assert np.max(np.abs(deriv(h, 1).values + np.sin(x))) < 1e-13

    def test_constant_derivative_zero(self):
        h = PeriodicField1D(np.full(32, 3.7))
        assert np.max(np.abs(deriv(h, 1).values)) < 1e-14

    def test_second_derivative_eigenfunction(self):
        h = field(lambda x: np.sin(3 * x))
        assert np.max(np.abs(deriv(h, 2).values + 9 * h.values)) < 1e-12

    def test_composition_matches_higher_order(self):
        rng = np.random.default_rng(2)
        h = random_bandlimited(64, 20, rng)
        twice = deriv(deriv(h, 1), 1)
        assert np.allclose(twice.values, deriv(h, 2).values, atol=1e-10)

    def test_order_validation(self):
        h = field(np.cos)
        with pytest.raises(ValueError):
            deriv(h, 0)
        with pytest.raises(ValueError):
            deriv(h, 5)


class TestX1Derivative:
    def test_cos_on_strip_and_stacked_arrays(self):
        # x1 is the last axis of a (n2, n1) strip array and of the stacked
        # (levels, n1) one alike: rows are levels
        x = nodes(32)
        levels = np.array([0.5, -1.0, 2.0])
        stacked = levels[:, None] * np.cos(3 * x)
        assert np.max(np.abs(x1_derivative(stacked, order=2) + 9.0 * stacked)) < 1e-12
        assert np.max(np.abs(x1_derivative(stacked)
                             + 3.0 * levels[:, None] * np.sin(3 * x))) < 1e-12


class TestSobolevNorm:
    def test_cos_l2(self):
        assert sobolev_norm(field(np.cos), 0.0) ** 2 == pytest.approx(np.pi, rel=1e-13)

    def test_cos_h1(self):
        assert sobolev_norm(field(np.cos), 1.0) ** 2 == pytest.approx(2 * np.pi, rel=1e-13)

    def test_zero_field(self):
        assert sobolev_norm(PeriodicField1D.zeros(16), 2.5) == 0.0

    def test_parseval_vs_nodal_quadrature(self):
        rng = np.random.default_rng(3)
        h = random_bandlimited(128, 40, rng)
        nodal = np.sum(h.values ** 2) * (2 * np.pi / h.n)
        assert sobolev_norm(h, 0.0) ** 2 == pytest.approx(nodal, rel=1e-12)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            sobolev_norm(field(np.cos), -1.0)


class TestMean:
    def test_cos_mean_zero(self):
        assert mean(field(np.cos)) == pytest.approx(0.0, abs=1e-15)

    def test_shifted_cos(self):
        h = field(lambda x: 1.0 + np.cos(x))
        assert mean(h) == pytest.approx(1.0, rel=1e-14)

    def test_projection(self):
        h = field(lambda x: 1.0 + np.cos(x))
        out = project_zero_mean(h)
        assert np.allclose(out.values, np.cos(nodes(h.n)), atol=1e-14)
        assert mean(out) == pytest.approx(0.0, abs=1e-15)


def test_resolution_mismatch_error_exists():
    # shared error type used by strip operations downstream
    assert issubclass(ResolutionMismatch, Exception)
