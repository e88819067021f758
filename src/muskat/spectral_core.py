"""Periodic 1-D field arithmetic on the circle [-pi, pi).

Real nodal samples live at x1_j = -pi + 2*pi*j/N (N even); the spectral view
is the real-FFT half spectrum scaled so that coefficient k equals the usual
Fourier coefficient of e^{ikx} up to a unimodular phase.  All multiplier
operations (derivatives, Sobolev weights, smoothing) act on |k| only, so the
phase never matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionMismatch

__all__ = [
    "PeriodicField1D",
    "deriv",
    "sobolev_norm",
    "mollify",
    "mean",
    "project_zero_mean",
    "nodes",
    "x1_derivative",
]

MAX_DERIV_ORDER = 4


def nodes(n: int) -> np.ndarray:
    """Equispaced nodes -pi + 2*pi*j/n, j = 0..n-1."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


@dataclass
class PeriodicField1D:
    """Real scalar field on the circle with dual nodal/Fourier views.

    `values` holds the N nodal samples (N even).  `coeffs` is the lazily
    cached half spectrum rfft(values)/N, indexed k = 0..N/2; the negative
    modes are the conjugates.  Treat instances as immutable.
    """

    values: np.ndarray
    _coeffs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("values must be a 1-D array")
        n = self.values.size
        if n < 2 or n % 2 != 0:
            raise ValueError(f"need an even number of nodes >= 2, got {n}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = np.fft.rfft(self.values) / self.n
        return self._coeffs

    @property
    def x1(self) -> np.ndarray:
        return nodes(self.n)

    @classmethod
    def zeros(cls, n: int) -> "PeriodicField1D":
        return cls(np.zeros(n))

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray, n: int) -> "PeriodicField1D":
        vals = np.fft.irfft(np.asarray(coeffs) * n, n=n)
        return cls(vals, _coeffs=np.asarray(coeffs, dtype=complex))

    @classmethod
    def from_modes(cls, n: int, modes) -> "PeriodicField1D":
        """Build a field from (k, cos_amp, sin_amp) triples."""
        x = nodes(n)
        vals = np.zeros(n)
        for k, ca, sa in modes:
            k = int(k)
            vals += ca * np.cos(k * x) + sa * np.sin(k * x)
        return cls(vals)


def _check_same_resolution(*fields: PeriodicField1D) -> int:
    n = fields[0].n
    for f in fields[1:]:
        if f.n != n:
            raise ResolutionMismatch(f"field resolutions differ: {f.n} vs {n}")
    return n


def _wavenumbers(n: int) -> np.ndarray:
    return np.arange(n // 2 + 1, dtype=float)


def deriv(h: PeriodicField1D, order: int) -> PeriodicField1D:
    """Spectral x1-derivative: multiply mode k by (ik)^order.

    The Nyquist mode is annihilated for odd orders (real-FFT convention).
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError("order must be a positive integer")
    if order > MAX_DERIV_ORDER:
        raise ValueError(f"order must be <= {MAX_DERIV_ORDER}")
    k = _wavenumbers(h.n)
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    return PeriodicField1D.from_coeffs(h.coeffs * mult, h.n)


def sobolev_norm(h: PeriodicField1D, s: float) -> float:
    """H^s norm with the (1 + k^2)^s symbol.

    Normalized so that the s = 0 case is the L^2 norm on [-pi, pi):
    sobolev_norm(h, 0)**2 == integral of h^2 (Parseval).
    """
    s = float(s)
    if not np.isfinite(s) or s < 0:
        raise ValueError("Sobolev exponent must be finite and >= 0")
    c = h.coeffs
    k = _wavenumbers(h.n)
    weights = np.full(k.size, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0  # Nyquist mode is not doubled
    total = 2.0 * np.pi * np.sum(weights * (1.0 + k * k) ** s * np.abs(c) ** 2)
    return float(np.sqrt(total))


def mollify(h: PeriodicField1D, delta: float) -> PeriodicField1D:
    """Smooth with the Gaussian multiplier exp(-delta^2 k^2); mean preserved."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    k = _wavenumbers(h.n)
    return PeriodicField1D.from_coeffs(h.coeffs * np.exp(-(delta * k) ** 2), h.n)


def mean(h: PeriodicField1D) -> float:
    """Circle average (2*pi)^{-1} * integral of h."""
    return float(np.mean(h.values))


def project_zero_mean(h: PeriodicField1D) -> PeriodicField1D:
    return PeriodicField1D(h.values - mean(h))


def x1_derivative(values2d: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral x1-derivative along axis 0 of a (n1, n2) sample array."""
    n = values2d.shape[0]
    k = _wavenumbers(n)
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(values2d, axis=0) * mult[:, None], n=n, axis=0)
