"""Variable-coefficient elliptic solve for the pulled-back hydraulic head.

The unknown is P = Q + delta_psi (modified pressure plus vertical shift),
which satisfies div(K grad P) = 0 in each strip with P = h on the interface
line, continuity of P and of the vertical K-flux across the permeability
line, and zero flux through the floor.  The pulled-back velocity is
w = -K grad P; the interface moves with the trace of w2 on the top line.

Discretization: vertex-centered cell balances on the two strip grids, which
share the permeability-line nodes.  One map, _CellBalance, takes the nodal
head of both strips to the balance of div w over each level's cell.  The
vertical part is in conservative face-flux form: the face average of k22
times the two-point difference plus the face average of k12 times the
averaged x1-difference.  The horizontal part is the x1-difference of the
nodal w1 = -(k11 D1 P + k12 d2 P) times the trapezoid cell height, where
D1 is one fourth-order antisymmetric stencil and d2 P is the strip-sided
diffeo.vertical_derivative.  Half cells sit at the floor, at the top line
and on both sides of the permeability line; the two there sum to the
balance of the shared node.  The column sums of the vertical fluxes
telescope and those of the antisymmetric horizontal stencil vanish
identically, so the total flux through the top line is zero to solver
precision -- the discrete mass ledger.  The antisymmetry also makes the
discrete summation-by-parts of the horizontal terms exact, which keeps the
energy-law defect free of any horizontal-resolution floor.  Face
conductivities are arithmetic averages of the adjacent levels.  The
recovered traces are rows of the same balance: the top-line row and the two
half-cell rows at the permeability line.

Solvers: "krylov" (the run default) is BiCGSTAB applied to the balance
itself, no matrix formed -- the head operator is not symmetric when
k12 != 0 -- preconditioned by the exact inverse of the flat-metric balance
(k12 = 0, constant k11 = k22 = beta per strip), which an rfft in x1 reduces
to one tridiagonal level system per Fourier mode.  "direct" is sparse LU of
the matrix read off the balance by coloured unit probes (Curtis, Powell &
Reid 1974); it is the oracle the Krylov path is tested against.
picard_head is a fixed-point cross-check built on the same flat inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .diffeo import (
    LOWER,
    UPPER,
    MetricPack,
    StripField,
    StripGrid,
    PermeabilityProfile,
    vertical_derivative,
)
from .errors import (
    NoContraction,
    NonSPDSystem,
    ResolutionMismatch,
    SolverDivergence,
)
from .spectral_core import PeriodicField1D

__all__ = ["HeadSolution", "solve_head", "picard_head"]

RESIDUAL_TOL = 1e-10
KRYLOV_MAXITER = 500


@dataclass
class HeadSolution:
    """Head and pulled-back velocity on both strips.

    gamma_trace_w2 is the conservative flux trace of w2 on the top line (the
    value balancing the top half cells); its circle integral vanishes to
    solver precision.  perm_flux_above/below are the vertical K-fluxes
    recovered on each side of the permeability line from the adjacent half
    cells; the interface rows force them equal.
    """

    p_plus: StripField
    p_minus: StripField
    w1_plus: StripField
    w2_plus: StripField
    w1_minus: StripField
    w2_minus: StripField
    gamma_trace_w2: PeriodicField1D
    perm_flux_above: PeriodicField1D
    perm_flux_below: PeriodicField1D
    top_flux_total: float


# ---------------------------------------------------------------------------
# the cell balance
# ---------------------------------------------------------------------------


def _x1_difference(v: np.ndarray, dx1: float) -> np.ndarray:
    """Fourth-order antisymmetric periodic x1-difference along axis 1."""
    w = np.concatenate([v[:, -2:], v, v[:, :2]], axis=1)
    return ((w[:, :-4] - w[:, 4:]) + 8.0 * (w[:, 3:-1] - w[:, 1:-3])) / (12.0 * dx1)


class _CellBalance:
    """Per-level cell balances of div w, w = -K grad P, on both strips.

    A head array is (m_minus + m_plus, n1): the lower strip's levels from the
    floor up, then the upper strip's, so the permeability line appears twice
    (rows m_minus - 1 and m_minus).  Between the two copies sits a
    zero-width pseudo-face that carries no flux.  Row s of the balance is
    the integral of div w over the cell of level s per unit x1-width: w2 on
    the face above minus w2 on the face below, plus the cell height times
    the x1-difference of w1.  The top line has no face above, so its row is
    minus the conservative w2 trace there; the two permeability-line rows
    lack the flux through that line, and their sum is the balance of the
    shared cell.

    Free unknowns are the heads below the top line, level after level of
    the shared grid: (n_lev, n1) raveled, n_lev = m_minus + m_plus - 2.  In
    this order sparse LU of the probed matrix fills in about a quarter less
    than with the levels of each x1 column contiguous.
    """

    def __init__(self, m_minus: int, dx2_minus: float, dx2_plus: float,
                 k11: np.ndarray, k12: np.ndarray, k22: np.ndarray):
        n_strip_levels, self.n1 = k11.shape
        self.m_minus = m_minus
        self.m_plus = m_plus = n_strip_levels - m_minus
        self.n_lev = n_strip_levels - 2
        self.dx1 = 2.0 * np.pi / self.n1
        self.dx2 = (dx2_minus, dx2_plus)
        self.k11, self.k12, self.k22 = k11, k12, k22
        inv_dx2 = np.r_[np.full(m_minus - 1, 1.0 / dx2_minus), 0.0,
                        np.full(m_plus - 1, 1.0 / dx2_plus)]
        self.face_k22 = 0.5 * (k22[:-1] + k22[1:]) * inv_dx2[:, None]
        self.face_k12 = 0.25 * (k12[:-1] + k12[1:]) * (inv_dx2 != 0.0)[:, None]
        self.height = np.r_[_trapezoid_heights(m_minus, dx2_minus),
                            _trapezoid_heights(m_plus, dx2_plus)][:, None]

    @classmethod
    def from_packs(cls, pack_minus: MetricPack, pack_plus: MetricPack) -> "_CellBalance":
        return cls(pack_minus.grid.n2, pack_minus.grid.dx2, pack_plus.grid.dx2,
                   *(np.vstack([getattr(pack_minus, k).T, getattr(pack_plus, k).T])
                     for k in ("k11", "k12", "k22")))

    @classmethod
    def flat(cls, n1: int, m_minus: int, m_plus: int, beta_plus: float,
             beta_minus: float) -> "_CellBalance":
        """The flat-metric balance: k12 = 0, k11 = k22 = beta per strip."""
        beta = np.repeat(np.r_[np.full(m_minus, beta_minus), np.full(m_plus, beta_plus)],
                         n1).reshape(-1, n1)
        return cls(m_minus, 1.0 / (m_minus - 1), 1.0 / (m_plus - 1),
                   beta, np.zeros_like(beta), beta)

    def gradient(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = self.m_minus
        d2p = np.concatenate([vertical_derivative(p[:m].T, self.dx2[0]).T,
                              vertical_derivative(p[m:].T, self.dx2[1]).T])
        return _x1_difference(p, self.dx1), d2p

    def __call__(self, p: np.ndarray) -> np.ndarray:
        d1p, d2p = self.gradient(p)
        w1 = -(self.k11 * d1p + self.k12 * d2p)
        w2_face = -(self.face_k22 * (p[1:] - p[:-1])
                    + self.face_k12 * (d1p[:-1] + d1p[1:]))
        rows = self.height * _x1_difference(w1, self.dx1)
        rows[:-1] += w2_face
        rows[1:] -= w2_face
        return rows

    def heads(self, x: np.ndarray, top: np.ndarray) -> np.ndarray:
        """Head array from the free unknowns and the top-line values."""
        m = self.m_minus
        x = x.reshape(self.n_lev, self.n1)
        return np.concatenate([x[:m], x[m - 1:], top[None]])

    def free_rows(self, x: np.ndarray, top: np.ndarray | None = None) -> np.ndarray:
        """Balance rows of the free nodes; with top omitted (zero) this is
        the head matrix applied to x."""
        m = self.m_minus
        rows = self(self.heads(x, np.zeros(self.n1) if top is None else top))
        out = np.concatenate([rows[:m], rows[m + 1:-1]])
        out[m - 1] += rows[m]
        return out.ravel()


def _trapezoid_heights(m: int, dx2: float) -> np.ndarray:
    heights = np.full(m, dx2)
    heights[[0, -1]] = dx2 / 2.0
    return heights


def _probe(balance: _CellBalance) -> sp.csc_matrix:
    """Sparse head matrix read off the balance by column colouring
    (Curtis, Powell & Reid 1974).

    A row couples to levels at most two away (one-sided d2 at the strip
    ends) and to x1 columns at most four away (the x1-difference of an
    x1-difference).  Unit heads on every fifth level and every q-th column,
    q = n1 if n1 < 9 else the smallest divisor of n1 that is at least 9, so
    reach disjoint rows, and each response entry belongs to one seed.
    """
    n1, n_lev = balance.n1, balance.n_lev
    q = n1 if n1 < 9 else min(d for d in range(9, n1 + 1) if n1 % d == 0)
    g = np.arange(n_lev)[:, None]
    j = np.arange(n1)[None, :]
    row_index = g * n1 + j
    rows, cols, vals = [], [], []
    for a in range(5):
        g0 = g + (a - g + 2) % 5 - 2
        for c in range(q):
            seed = np.zeros((n_lev, n1))
            seed[a::5, c::q] = 1.0
            response = balance.free_rows(seed.ravel()).reshape(n_lev, n1)
            hit = response != 0.0
            j0 = (j + (c - j + 4) % q - 4) % n1
            rows.append(row_index[hit])
            cols.append((g0 * n1 + j0)[hit])
            vals.append(response[hit])
    n_free = n1 * n_lev
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_free, n_free))


def _check_inputs(pack_plus: MetricPack, pack_minus: MetricPack,
                  h: PeriodicField1D, profile: PermeabilityProfile):
    if pack_plus.grid.strip != UPPER or pack_minus.grid.strip != LOWER:
        raise ValueError("expected (upper pack, lower pack)")
    if pack_plus.grid.n1 != pack_minus.grid.n1 or h.n != pack_plus.grid.n1:
        raise ResolutionMismatch(
            f"n1 mismatch: upper {pack_plus.grid.n1}, lower {pack_minus.grid.n1}, "
            f"interface {h.n}"
        )
    for pack in (pack_plus, pack_minus):
        if abs(pack.beta - profile.beta(pack.grid.strip)) > 1e-14 * pack.beta:
            raise ValueError("metric pack permeability disagrees with profile")
        if float(np.min(pack.J)) <= 0.0:
            raise NonSPDSystem("conductivity tensor not positive definite: J <= 0")


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def _recover(balance: _CellBalance, p: np.ndarray, scale: float) -> HeadSolution:
    """Velocity and traces at the head array p, all from the balance, with
    every output multiplied by scale."""
    m = balance.m_minus
    d1p, d2p = balance.gradient(p)
    w1 = -(balance.k11 * d1p + balance.k12 * d2p)
    w2 = -(balance.k12 * d1p + balance.k22 * d2p)
    rows = scale * balance(p)
    grid_minus = StripGrid(LOWER, balance.n1, m)
    grid_plus = StripGrid(UPPER, balance.n1, balance.m_plus)

    def split(arr):
        return (StripField(grid_plus, scale * arr[m:].T),
                StripField(grid_minus, scale * arr[:m].T))

    (p_plus, p_minus), (w1_plus, w1_minus), (w2_plus, w2_minus) = map(split, (p, w1, w2))
    return HeadSolution(
        p_plus=p_plus,
        p_minus=p_minus,
        w1_plus=w1_plus,
        w2_plus=w2_plus,
        w1_minus=w1_minus,
        w2_minus=w2_minus,
        gamma_trace_w2=PeriodicField1D(-rows[-1]),
        perm_flux_above=PeriodicField1D(-rows[m]),
        perm_flux_below=PeriodicField1D(rows[m - 1].copy()),
        top_flux_total=float(balance.dx1 * np.sum(rows[-1])),
    )


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


class _FlatInverse:
    """Exact inverse of the free flat-metric balance (k12 = 0, constant k11
    and k22 per strip).

    That operator is circulant in x1 and tridiagonal across levels, so an
    rfft in x1 splits it into one tridiagonal level system per Fourier mode
    (Concus & Golub 1973).  Its per-mode bands are the rfft of the responses
    to unit heads in column 0 on every third level.  The per-mode systems are
    stacked mode after mode into a single tridiagonal matrix: the floor level
    has no level below and the top free level none above, so consecutive
    modes do not couple.  Its LU factors (LAPACK gttrf) are computed once;
    each solve is one rfft, one gttrs call over all modes and one irfft.
    """

    def __init__(self, flat: _CellBalance):
        from scipy.linalg import lapack  # already loaded by scipy.sparse.linalg

        self.n1, n_lev = flat.n1, flat.n_lev
        response = []
        for a in range(3):
            seed = np.zeros((n_lev, self.n1))
            seed[a::3, 0] = 1.0
            response.append(np.fft.rfft(flat.free_rows(seed.ravel()).reshape(n_lev, self.n1)))
        response = np.stack(response)
        # row g is reached by the seed level g + s of colour (g + s) mod 3
        g = np.arange(n_lev)
        lower, diag, upper = (response[(g + s) % 3, g].T.ravel() for s in (-1, 0, 1))
        *self._factors, info = lapack.zgttrf(lower[1:], diag, upper[:-1])
        assert info == 0, "flat operator is singular"
        self._gttrs = lapack.zgttrs

    def solve(self, r: np.ndarray) -> np.ndarray:
        modes = np.fft.rfft(r.reshape(-1, self.n1))
        x, _ = self._gttrs(*self._factors, modes.T.reshape(-1, 1))
        return np.fft.irfft(x.reshape(-1, modes.shape[0]).T, n=self.n1).ravel()


@lru_cache(maxsize=8)
def _flat_inverse(n1: int, m_minus: int, m_plus: int,
                  beta_plus: float, beta_minus: float) -> _FlatInverse:
    """Flat-metric inverse: the Krylov preconditioner and the Picard splitting."""
    return _FlatInverse(_CellBalance.flat(n1, m_minus, m_plus, beta_plus, beta_minus))


def _bicgstab(apply, b: np.ndarray, precond, rtol: float) -> np.ndarray:
    """Right-preconditioned BiCGSTAB (van der Vorst 1992) from x = 0.

    Stops once |r|_2 <= rtol |b|_2; raises SolverDivergence on a breakdown
    or after KRYLOV_MAXITER iterations.  Inner products are numpy
    reductions, not BLAS dot: OpenBLAS threads ddot on long vectors, and
    with another process busy on a two-core host that made a reference-scale
    solve about nine times slower.
    """
    def dot(u, v):
        return float((u * v).sum())

    x = np.zeros_like(b)
    r = b.copy()
    p = np.zeros_like(b)
    v = np.zeros_like(b)
    stop = rtol * np.sqrt(dot(b, b))
    rho_prev = alpha = omega = 1.0
    try:
        for _ in range(KRYLOV_MAXITER):
            rho = dot(b, r)  # the shadow residual is b; rho = 0 fails at rho_prev
            if not np.isfinite(rho):
                raise SolverDivergence("BiCGSTAB broke down: non-finite residual")
            p = r + (rho / rho_prev) * (alpha / omega) * (p - omega * v)
            p_pre = precond(p)
            v = apply(p_pre)
            alpha = rho / dot(b, v)
            x += alpha * p_pre
            s = r - alpha * v
            if np.sqrt(dot(s, s)) <= stop:
                return x
            s_pre = precond(s)
            t = apply(s_pre)
            omega = dot(t, s) / dot(t, t)
            x += omega * s_pre
            r = s - omega * t
            if np.sqrt(dot(r, r)) <= stop:
                return x
            rho_prev = rho
    except ZeroDivisionError:
        raise SolverDivergence("BiCGSTAB broke down") from None
    raise SolverDivergence(f"BiCGSTAB stalled: not converged in {KRYLOV_MAXITER} iterations")


def _solve_direct(balance: _CellBalance, b: np.ndarray) -> np.ndarray:
    l_free = _probe(balance)
    if np.any(l_free.diagonal() <= 0.0):
        raise NonSPDSystem("head matrix lost positive diagonal")
    try:
        lu = spla.splu(l_free, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # singular factor
        raise NonSPDSystem(f"sparse factorization failed: {exc}") from exc
    return lu.solve(b)


def _solve_krylov(balance: _CellBalance, b: np.ndarray, profile: PermeabilityProfile):
    flat = _flat_inverse(balance.n1, balance.m_minus, balance.m_plus,
                         profile.beta_plus, profile.beta_minus)
    # |r|_inf <= |r|_2 <= rtol |b|_2 <= rtol sqrt(n_free) |b|_inf, so this
    # rtol meets the max-norm residual gate of solve_head
    return _bicgstab(balance.free_rows, b, flat.solve, RESIDUAL_TOL / np.sqrt(b.size))


def solve_head(pack_plus: MetricPack, pack_minus: MetricPack, h: PeriodicField1D,
               profile: PermeabilityProfile, solver: str = "direct") -> HeadSolution:
    """Solve the head system; recover the velocity and traces.

    solver: "direct" (sparse LU of the probed matrix, the default here and
    the test oracle) or "krylov" (BiCGSTAB on the matrix-free balance,
    preconditioned by the exact flat-metric inverse, the default of
    SimConfig; the head operator is not symmetric when k12 != 0).  The
    system is solved for h / max|h| and every output rescaled, since it is
    linear in h; h = 0 gives the exact zero solution.  Either way the
    max-norm residual relative to the right side must come out below
    RESIDUAL_TOL, else SolverDivergence is raised; a Krylov stall or
    breakdown raises it too.
    """
    if solver not in ("direct", "krylov"):
        raise ValueError(f"unknown solver {solver!r}")
    _check_inputs(pack_plus, pack_minus, h, profile)
    balance = _CellBalance.from_packs(pack_minus, pack_plus)
    zero = np.zeros(balance.n1 * balance.n_lev)
    scale = float(np.max(np.abs(h.values)))
    if scale == 0.0:
        return _recover(balance, balance.heads(zero, h.values), 1.0)
    top = h.values / scale
    b = -balance.free_rows(zero, top)
    x = _solve_direct(balance, b) if solver == "direct" else _solve_krylov(balance, b, profile)
    res = float(np.max(np.abs(balance.free_rows(x) - b))) / float(np.max(np.abs(b)))
    if not np.isfinite(res) or res > RESIDUAL_TOL:
        raise SolverDivergence(f"head solve residual {res:.3e} exceeds {RESIDUAL_TOL}")
    return _recover(balance, balance.heads(x, top), scale)


def picard_head(pack_plus: MetricPack, pack_minus: MetricPack, h: PeriodicField1D,
                profile: PermeabilityProfile, max_iter: int = 100,
                tol: float = 1e-10) -> HeadSolution:
    """Fixed-point cross-check of solve_head.

    Splits the discrete operator into its flat-metric part (constant-
    coefficient Laplacian per strip, inverted exactly by the cached FFT flat
    inverse) plus the metric perturbation, and iterates constant-coefficient
    solves with the previous iterate's right side, x <- x + L0^-1 (b - L x),
    which is x <- L0^-1 (b - (L - L0) x) in residual form.  Contraction needs
    the small-shift regime; raises NoContraction when the iterates diverge or
    the budget runs out.
    """
    _check_inputs(pack_plus, pack_minus, h, profile)
    balance = _CellBalance.from_packs(pack_minus, pack_plus)
    flat = _flat_inverse(balance.n1, balance.m_minus, balance.m_plus,
                         profile.beta_plus, profile.beta_minus)
    x = np.zeros(balance.n1 * balance.n_lev)
    b = -balance.free_rows(x, h.values)

    prev_diff = np.inf
    growth_streak = 0
    for _ in range(max_iter):
        x_new = x + flat.solve(b - balance.free_rows(x))
        diff = float(np.max(np.abs(x_new - x))) if x.size else 0.0
        x = x_new
        if diff <= tol * max(1.0, float(np.max(np.abs(x), initial=0.0))):
            return _recover(balance, balance.heads(x, h.values), 1.0)
        growth_streak = growth_streak + 1 if diff > prev_diff else 0
        if growth_streak >= 3 or not np.isfinite(diff):
            raise NoContraction(
                f"fixed-point head iteration diverging (step change {diff:.3e})"
            )
        prev_diff = diff
    raise NoContraction(f"fixed-point head iteration not converged in {max_iter} steps")
