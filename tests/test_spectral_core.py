import numpy as np
import pytest

from muskat.errors import ResolutionMismatch
from muskat.spectral_core import PeriodicField1D, nodes, sobolev_norm, x1_derivative


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
        back = np.fft.irfft(h.coeffs * h.n, n=h.n)
        tol = 10 * np.finfo(float).eps * np.max(np.abs(h.values))
        assert np.max(np.abs(back - h.values)) <= tol

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

    def test_rejects_2d_values(self):
        # an even number of finite samples, but not one row of them
        with pytest.raises(ValueError, match="1-D"):
            PeriodicField1D(np.zeros((2, 4)))


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

    def test_cos_to_minus_sin(self):
        x = nodes(64)
        assert np.max(np.abs(x1_derivative(np.cos(x)) + np.sin(x))) < 1e-13

    def test_constant_derivative_zero(self):
        assert np.max(np.abs(x1_derivative(np.full(32, 3.7)))) < 1e-14

    def test_second_derivative_eigenfunction(self):
        values = np.sin(3 * nodes(64))
        assert np.max(np.abs(x1_derivative(values, order=2) + 9 * values)) < 1e-12

    def test_composition_matches_higher_order(self):
        rng = np.random.default_rng(2)
        values = random_bandlimited(64, 20, rng).values
        twice = x1_derivative(x1_derivative(values))
        assert np.allclose(twice, x1_derivative(values, order=2), atol=1e-10)

    def test_odd_order_annihilates_nyquist(self):
        # the Nyquist mode k = n/2 is (-1)^j at the nodes: odd orders map it
        # to zero, even orders multiply it by (ik)^order
        n = 16
        nyquist = (-1.0) ** np.arange(n)
        for order in (1, 3):
            assert np.max(np.abs(x1_derivative(nyquist, order=order))) < 1e-13
        assert np.max(np.abs(x1_derivative(nyquist, order=2)
                             + (n // 2) ** 2 * nyquist)) < 1e-12


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


def test_resolution_mismatch_error_exists():
    # shared error type used by strip operations downstream
    assert issubclass(ResolutionMismatch, Exception)
