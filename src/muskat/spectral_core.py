"""Periodic 1-D field arithmetic on the circle [-pi, pi).

Real nodal samples live at x1_j = -pi + 2*pi*j/N (N even); the spectral view
is the real-FFT half spectrum scaled so that coefficient k equals the usual
Fourier coefficient of e^{ikx} up to a unimodular phase.  All multiplier
operations (derivatives, Sobolev weights) act on |k| only, so the phase
never matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodicField1D",
    "sobolev_norm",
    "nodes",
    "x1_derivative",
]


def nodes(n: int) -> np.ndarray:
    """Equispaced nodes -pi + 2*pi*j/n, j = 0..n-1."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


@dataclass
class PeriodicField1D:
    """Real scalar field on the circle: its N nodal samples `values` (N even,
    finite).  `coeffs` is the half spectrum rfft(values)/N, indexed
    k = 0..N/2, computed on each read; the negative modes are the
    conjugates.
    """

    values: np.ndarray

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
        return np.fft.rfft(self.values) / self.n

    @classmethod
    def zeros(cls, n: int) -> "PeriodicField1D":
        return cls(np.zeros(n))

    @classmethod
    def from_modes(cls, n: int, modes) -> "PeriodicField1D":
        """Build a field from (k, cos_amp, sin_amp) triples."""
        x = nodes(n)
        vals = np.zeros(n)
        for k, ca, sa in modes:
            k = int(k)
            vals += ca * np.cos(k * x) + sa * np.sin(k * x)
        return cls(vals)


def _wavenumbers(n: int) -> np.ndarray:
    return np.arange(n // 2 + 1, dtype=float)


def _deriv_multiplier(n: int, order: int) -> np.ndarray:
    """(ik)^order for the rfft modes k = 0..n/2; the Nyquist mode is
    annihilated for odd orders (real-FFT convention)."""
    mult = (1j * _wavenumbers(n)) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    return mult


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


def x1_derivative(values2d: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral x1-derivative along the last axis, x1 of n1 samples or of a
    (levels, n1) array: mode k times (ik)^order, the Nyquist mode annihilated
    for odd orders."""
    n = values2d.shape[-1]
    return np.fft.irfft(np.fft.rfft(values2d) * _deriv_multiplier(n, order), n=n)
