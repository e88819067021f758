"""Strip maps and pulled-back metric coefficients.

The moving domain is flattened onto two fixed reference strips,
upper = S^1 x (-1, 0) and lower = S^1 x (-2, -1), by the vertical shift map
psi = (x1, x2 + delta_psi) where delta_psi solves Laplace's equation in each
strip with the interface trace h, the permeability-curve trace f, and zero on
the floor as Dirichlet data.  From its gradient (d1, d2) we assemble the
pulled-back Darcy conductivity K = beta J A A^T per node, with the Jacobian
J = 1 + d2 and A the inverse-gradient matrix; piola_divergence checks the
map's Piola identity on that gradient.

Every strip array is C-ordered (n2, n1), one row per x2 level from the bottom
up: the head balance stacks these rows as they are, so nothing is transposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DiffeoDegenerate, ResolutionMismatch
from .spectral_core import PeriodicField1D, x1_derivative

__all__ = [
    "UPPER",
    "LOWER",
    "StripGrid",
    "StripField",
    "PermeabilityProfile",
    "harmonic_extension",
    "vertical_derivative_exact",
    "vertical_derivative",
    "MetricPack",
    "metric_terms",
    "piola_divergence",
    "DEFAULT_J_MIN",
]

UPPER = "upper"
LOWER = "lower"

# vertical extent of each reference strip: (bottom, top)
_STRIP_BOUNDS = {UPPER: (-1.0, 0.0), LOWER: (-2.0, -1.0)}

DEFAULT_J_MIN = 0.1


@dataclass(frozen=True)
class StripGrid:
    """Tensor grid on one reference strip, inclusive of both boundaries."""

    strip: str
    n1: int
    n2: int

    def __post_init__(self):
        if self.strip not in _STRIP_BOUNDS:
            raise ValueError(f"strip must be '{UPPER}' or '{LOWER}', got {self.strip!r}")
        if self.n1 < 4 or self.n1 % 2 != 0:
            raise ValueError(f"{self.strip} strip: n1 must be even and >= 4, got {self.n1}")
        if self.n2 < 3:
            raise ValueError(f"{self.strip} strip: n2 must be >= 3, got {self.n2}")

    @property
    def bounds(self) -> tuple[float, float]:
        return _STRIP_BOUNDS[self.strip]

    @property
    def dx2(self) -> float:
        return 1.0 / (self.n2 - 1)

    @property
    def x2(self) -> np.ndarray:
        bottom, top = self.bounds
        return np.linspace(bottom, top, self.n2)

    @property
    def dx1(self) -> float:
        return 2.0 * np.pi / self.n1


@dataclass
class StripField:
    """Real samples on a strip grid, (n2, n1): values[m, j] = field(x1_j, x2_m)."""

    grid: StripGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n2, self.grid.n1):
            raise ResolutionMismatch(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n2}, {self.grid.n1})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("strip field values must be finite")


@dataclass
class PermeabilityProfile:
    """Permeability-curve height offset f and the two conductivities."""

    f: PeriodicField1D
    beta_plus: float
    beta_minus: float

    def __post_init__(self):
        if not (self.beta_plus > 0 and self.beta_minus > 0):
            raise ValueError("permeabilities must be positive")
        if not (np.isfinite(self.beta_plus) and np.isfinite(self.beta_minus)):
            raise ValueError("permeabilities must be finite")
        if float(np.min(self.f.values)) <= -1.0:
            raise ValueError("permeability curve touches the floor: need min f > -1")

    def beta(self, strip: str) -> float:
        return self.beta_plus if strip == UPPER else self.beta_minus


def _strip_traces(h: PeriodicField1D, f: PeriodicField1D, grid: StripGrid):
    """Dirichlet data (bottom, top) for the shift equation on one strip."""
    if grid.strip == UPPER:
        return f.coeffs, h.coeffs
    return np.zeros(grid.n1 // 2 + 1, dtype=complex), f.coeffs


def _over_sinh(k: np.ndarray, xi: np.ndarray, sign: float) -> np.ndarray:
    """(e^(k xi) + sign e^(-k xi)) / (2 sinh k) for k >= 1, 0 <= xi <= 1, in
    overflow-safe form: sinh(k xi)/sinh(k) for sign = -1, cosh(k xi)/sinh(k)
    for sign = +1."""
    kk = k[None, :]
    xx = xi[:, None]
    return np.exp(kk * (xx - 1.0)) * (1.0 + sign * np.exp(-2.0 * kk * xx)) / (
        1.0 - np.exp(-2.0 * kk)
    )


@lru_cache(maxsize=16)
def _extension_profiles(grid: StripGrid, derivative: bool):
    """Vertical profiles of the modes k = 0..n1/2, (n2, n1/2 + 1), that
    multiply the top and bottom traces; k = 0 is the linear interpolant.
    Cached per grid and shared by every caller, so read-only."""
    k = np.arange(1, grid.n1 // 2 + 1, dtype=float)
    bottom, _ = grid.bounds
    xi = grid.x2 - bottom  # in [0, 1]
    if not derivative:
        top = np.column_stack([xi, _over_sinh(k, xi, -1.0)])
        bot = np.column_stack([1.0 - xi, _over_sinh(k, 1.0 - xi, -1.0)])
    else:
        top = np.column_stack([np.ones_like(xi), k * _over_sinh(k, xi, 1.0)])
        bot = np.column_stack([-np.ones_like(xi), -k * _over_sinh(k, 1.0 - xi, 1.0)])
    top.setflags(write=False)
    bot.setflags(write=False)
    return top, bot


def _extend(h: PeriodicField1D, f: PeriodicField1D, grid: StripGrid,
            derivative: bool) -> StripField:
    if h.n != grid.n1 or f.n != grid.n1:
        raise ResolutionMismatch(
            f"trace resolution ({h.n}, {f.n}) does not match grid n1={grid.n1}"
        )
    bot_tr, top_tr = _strip_traces(h, f, grid)
    top, bot = _extension_profiles(grid, derivative)
    coeffs = top_tr * top + bot_tr * bot
    values = np.fft.irfft(coeffs * grid.n1, n=grid.n1)
    return StripField(grid, values)


def harmonic_extension(h: PeriodicField1D, f: PeriodicField1D,
                       grid: StripGrid) -> StripField:
    """Solve Laplace's equation in the strip with the boundary traces.

    Upper strip: value h on the interface line x2 = 0, f on the permeability
    line x2 = -1.  Lower strip: f on x2 = -1, zero on the floor x2 = -2.
    Each Fourier mode k != 0 is solved exactly in the sinh basis (evaluated in
    an overflow-safe scaled form); the k = 0 mode is the linear interpolant of
    the boundary means.  Values are sampled on the grid's x2 levels.
    """
    return _extend(h, f, grid, derivative=False)


def vertical_derivative_exact(h: PeriodicField1D, f: PeriodicField1D,
                              grid: StripGrid) -> StripField:
    """Analytic x2-derivative of the harmonic extension on the grid levels."""
    return _extend(h, f, grid, derivative=True)


def vertical_derivative(values: np.ndarray, dx2: float) -> np.ndarray:
    """x2-derivative along axis 0, the levels: centered interior, one-sided
    2nd order at the strip boundaries."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dx2)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dx2)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dx2)
    return out


@dataclass
class MetricPack:
    """Pulled-back conductivity K of one strip per node, each entry (n2, n1)
    like StripField.  With the shift gradient (d1, d2), J = 1 + d2 and
    A = (1/J) [[J, 0], [-d1, 1]], K = beta J A A^T = beta [[J, -d1], [-d1,
    (1 + d1^2)/J]]: det K = beta^2, so K is positive definite where k11 > 0.
    """

    grid: StripGrid
    beta: float
    k11: np.ndarray
    k12: np.ndarray
    k22: np.ndarray


def metric_terms(delta_psi: StripField, profile: PermeabilityProfile,
                 j_min: float = DEFAULT_J_MIN) -> MetricPack:
    """Conductivity of one strip from the gradient of its shift.

    d1 is the spectral x1-derivative per level; d2 uses finite differences of
    the grid values (not the analytic mode derivative) so the downstream
    discrete identities hold in the same calculus as the head solver.
    DiffeoDegenerate where J = 1 + d2 falls to j_min.
    """
    grid = delta_psi.grid
    beta = profile.beta(grid.strip)
    d1 = x1_derivative(delta_psi.values)
    J = 1.0 + vertical_derivative(delta_psi.values, grid.dx2)
    if float(np.min(J)) <= j_min:
        raise DiffeoDegenerate(
            f"strip map degenerate on {grid.strip} strip: min J = {np.min(J):.4g} "
            f"<= j_min = {j_min:.4g}"
        )
    k11 = beta * J
    k12 = -beta * d1
    k22 = beta * (1.0 + d1 * d1) / J
    return MetricPack(grid, float(beta), k11, k12, k22)


def piola_divergence(delta_psi: StripField, d2: np.ndarray) -> np.ndarray:
    """Discrete divergence (J A^k_1),_k = d2,1 - d1,2 of the strip map, d1
    spectral in x1 and d2 as given: vertical_derivative of the shift
    (metric_terms' d2) leaves it at roundoff, the analytic
    vertical_derivative_exact the x2 truncation gap.  The i = 2 component
    is (J A^k_2),_k = 0,_1 + 1,_2, which both stencils annihilate exactly."""
    d1 = x1_derivative(delta_psi.values)
    return x1_derivative(d2) - vertical_derivative(d1, delta_psi.grid.dx2)
