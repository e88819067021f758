"""Variable-coefficient elliptic solve for the pulled-back hydraulic head.

The unknown is P = Q + delta_psi (modified pressure plus vertical shift),
which satisfies div(K grad P) = 0 in each strip with P = h on the interface
line, continuity of P and of the vertical K-flux across the permeability
line, and zero flux through the floor.  The pulled-back velocity is
w = -K grad P; the interface moves with the trace of w2 on the top line.

Discretization: vertex-centered cell balances on the two stacked strip grids
sharing the permeability-line nodes.  The vertical direction is in
conservative face-flux form (half cells at the floor and astride the
permeability line), so the column sums of the vertical fluxes telescope; the
horizontal direction uses nodal antisymmetric difference stencils, whose
column sums vanish identically, so the total flux through the top line is
zero to solver precision -- the discrete mass ledger.  The antisymmetry also
makes the discrete summation-by-parts of the horizontal terms exact, which
keeps the energy-law defect free of any horizontal-resolution floor.  Face
conductivities are arithmetic averages of the adjacent levels.

Solvers: "krylov" (the run default) is BiCGSTAB -- the head matrix is not
symmetric when k12 != 0 -- preconditioned by the exact inverse of the
flat-metric operator (k12 = 0, constant k11 and k22 per strip), which an rfft
in x1 reduces to one tridiagonal level system per Fourier mode.  "direct"
(sparse LU) is the oracle the Krylov path is tested against.  picard_head is
a fixed-point cross-check built on the same flat inverse.
"""

from __future__ import annotations

import threading
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
    assemble_metric,
    vertical_derivative,
)
from .errors import (
    NoContraction,
    NonSPDSystem,
    ResolutionMismatch,
    SolverDivergence,
)
from .spectral_core import PeriodicField1D

__all__ = ["HeadSolution", "solve_head", "picard_head", "X1_ORDER"]

# Horizontal stencil order (2 or 4).  Fourth order keeps the horizontal
# truncation error far below the vertical one at reference resolutions.
X1_ORDER = 4

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
# geometry plan: coefficient-independent sparse building blocks
# ---------------------------------------------------------------------------


class _Plan:
    """Sparse operators for a fixed (n1, n2-, n2+) layout.

    Node layout is level-major over the global levels: lower levels 0..Mm-1
    (level Mm-1 is the shared permeability line), then upper levels 1..Mp-1;
    the top line (Dirichlet) is the last level.  Vertical faces are indexed
    by the level below them.  Horizontal rows exist once per strip level, so
    the permeability line carries one lower-side row and one upper-side row.
    """

    def __init__(self, n1: int, m_minus: int, m_plus: int, x1_order: int):
        if x1_order not in (2, 4):
            raise ValueError("x1_order must be 2 or 4")
        self.n1 = n1
        self.m_minus = m_minus
        self.m_plus = m_plus
        self.x1_order = x1_order

        self.d1 = 2.0 * np.pi / n1
        self.dm = 1.0 / (m_minus - 1)
        self.dp = 1.0 / (m_plus - 1)

        self.n_levels = m_minus + m_plus - 1
        self.n_all = self.n_levels * n1
        self.n_free = (self.n_levels - 1) * n1
        self.n_vface_levels = m_minus + m_plus - 2
        self.n_hrow_levels = m_minus + m_plus

        self._build()

    # -- index helpers ------------------------------------------------------

    def _vspacing(self, f: int) -> float:
        return self.dm if f <= self.m_minus - 2 else self.dp

    def _hrow_global_level(self, lh: int) -> int:
        return lh if lh <= self.m_minus - 1 else lh - 1

    def _d2_stencil(self, lh: int) -> list[tuple[int, float]]:
        """(global level, coeff) entries of the nodal x2-derivative at the
        strip level backing horizontal row lh."""
        if lh <= self.m_minus - 1:
            ell, m_count, dx2, base = lh, self.m_minus, self.dm, 0
        else:
            ell, m_count, dx2, base = lh - self.m_minus, self.m_plus, self.dp, self.m_minus - 1
        g = base + ell
        if ell == 0:
            return [(g, -1.5 / dx2), (g + 1, 2.0 / dx2), (g + 2, -0.5 / dx2)]
        if ell == m_count - 1:
            return [(g, 1.5 / dx2), (g - 1, -2.0 / dx2), (g - 2, 0.5 / dx2)]
        return [(g + 1, 0.5 / dx2), (g - 1, -0.5 / dx2)]

    def _x1_deriv_offsets(self) -> list[tuple[int, float]]:
        """Antisymmetric nodal x1-derivative stencil."""
        if self.x1_order == 2:
            return [(1, 0.5 / self.d1), (-1, -0.5 / self.d1)]
        c = 1.0 / (12.0 * self.d1)
        return [(-2, c), (-1, -8.0 * c), (1, 8.0 * c), (2, -c)]

    # -- sparse factories ----------------------------------------------------

    def _build(self):
        n = self.n1
        j = np.arange(n)
        offsets = self._x1_deriv_offsets()

        # DV: two-point vertical difference at vertical faces
        rows, cols, vals = [], [], []
        for f in range(self.n_vface_levels):
            inv = 1.0 / self._vspacing(f)
            r = f * n + j
            rows += [r, r]
            cols += [(f + 1) * n + j, f * n + j]
            vals += [np.full(n, inv), np.full(n, -inv)]
        self.DV = self._coo(rows, cols, vals, self.n_vface_levels * n, self.n_all)

        # CV: nodal x1-derivative averaged onto vertical faces
        rows, cols, vals = [], [], []
        for f in range(self.n_vface_levels):
            r = f * n + j
            for g in (f, f + 1):
                for dj, c in offsets:
                    rows.append(r)
                    cols.append(g * n + (j + dj) % n)
                    vals.append(np.full(n, 0.5 * c))
        self.CV = self._coo(rows, cols, vals, self.n_vface_levels * n, self.n_all)

        # D1N: nodal x1-derivative per horizontal row
        rows, cols, vals = [], [], []
        for lh in range(self.n_hrow_levels):
            g = self._hrow_global_level(lh)
            r = lh * n + j
            for dj, c in offsets:
                rows.append(r)
                cols.append(g * n + (j + dj) % n)
                vals.append(np.full(n, c))
        self.D1N = self._coo(rows, cols, vals, self.n_hrow_levels * n, self.n_all)

        # D2N: nodal x2-derivative per horizontal row (strip-sided at the
        # permeability line)
        rows, cols, vals = [], [], []
        for lh in range(self.n_hrow_levels):
            r = lh * n + j
            for g, c in self._d2_stencil(lh):
                rows.append(r)
                cols.append(g * n + j)
                vals.append(np.full(n, c))
        self.D2N = self._coo(rows, cols, vals, self.n_hrow_levels * n, self.n_all)

        # D1H: the same antisymmetric derivative acting within each
        # horizontal row (outer derivative of the horizontal term)
        rows, cols, vals = [], [], []
        for lh in range(self.n_hrow_levels):
            r = lh * n + j
            for dj, c in offsets:
                rows.append(r)
                cols.append(lh * n + (j + dj) % n)
                vals.append(np.full(n, c))
        self.D1H = self._coo(rows, cols, vals,
                             self.n_hrow_levels * n, self.n_hrow_levels * n)

        # SVd: net vertical face flux per dual cell, times the face width d1
        rows, cols, vals = [], [], []
        for g in range(self.n_levels - 1):
            r = g * n + j
            rows.append(r)
            cols.append(g * n + j)  # face above the cell
            vals.append(np.full(n, self.d1))
            if g >= 1:
                rows.append(r)
                cols.append((g - 1) * n + j)  # face below
                vals.append(np.full(n, -self.d1))
        self.SVd = self._coo(rows, cols, vals, self.n_free, self.n_vface_levels * n)

        # SHd: horizontal-row contribution per dual cell, times height * d1
        rows, cols, vals = [], [], []
        for g in range(self.n_levels - 1):
            r = g * n + j
            for lh, height in self._cell_hrows(g):
                rows.append(r)
                cols.append(lh * n + j)
                vals.append(np.full(n, height * self.d1))
        self.SHd = self._coo(rows, cols, vals, self.n_free, self.n_hrow_levels * n)

    def _cell_hrows(self, g: int) -> list[tuple[int, float]]:
        """Horizontal row(s) and heights of the dual cell at level g."""
        if g == 0:
            return [(0, self.dm / 2.0)]
        if g < self.m_minus - 1:
            return [(g, self.dm)]
        if g == self.m_minus - 1:  # straddles the permeability line
            return [(self.m_minus - 1, self.dm / 2.0), (self.m_minus, self.dp / 2.0)]
        return [(g + 1, self.dp)]

    @staticmethod
    def _coo(rows, cols, vals, nrows, ncols) -> sp.csr_matrix:
        r = np.concatenate(rows)
        c = np.concatenate([np.asarray(x) for x in cols])
        v = np.concatenate(vals)
        return sp.coo_matrix((v, (r, c)), shape=(nrows, ncols)).tocsr()


_plan_lock = threading.Lock()


@lru_cache(maxsize=8)
def _plan(n1: int, m_minus: int, m_plus: int, x1_order: int) -> _Plan:
    with _plan_lock:
        return _Plan(n1, m_minus, m_plus, x1_order)


# ---------------------------------------------------------------------------
# per-solve coefficient arrays
# ---------------------------------------------------------------------------


def _level_major(arr: np.ndarray) -> np.ndarray:
    """(n1, n2) nodal array -> flat level-major vector."""
    return arr.T.ravel()


def _vface_average(arr: np.ndarray) -> np.ndarray:
    """Average nodal values onto vertical faces of one strip, level-major."""
    return _level_major(0.5 * (arr[:, :-1] + arr[:, 1:]))


def _rowscale(m: sp.csr_matrix, v: np.ndarray) -> sp.csr_matrix:
    out = m.copy()
    out.data = out.data * np.repeat(v, np.diff(out.indptr))
    return out


def _flux_operators(plan: _Plan, pack_minus: MetricPack, pack_plus: MetricPack):
    """Vertical face fluxes F and horizontal term densities H on all nodes."""
    k22f = np.concatenate([_vface_average(pack_minus.k22), _vface_average(pack_plus.k22)])
    k21f = np.concatenate([_vface_average(pack_minus.k12), _vface_average(pack_plus.k12)])
    k11n = np.concatenate([_level_major(pack_minus.k11), _level_major(pack_plus.k11)])
    k12n = np.concatenate([_level_major(pack_minus.k12), _level_major(pack_plus.k12)])
    f_op = _rowscale(plan.DV, k22f) + _rowscale(plan.CV, k21f)
    h_op = plan.D1H @ (_rowscale(plan.D1N, k11n) + _rowscale(plan.D2N, k12n))
    return f_op, h_op


def _assemble(plan: _Plan, pack_minus: MetricPack, pack_plus: MetricPack):
    """Full operator over all nodes; rows are -net-flux cell balances."""
    f_op, h_op = _flux_operators(plan, pack_minus, pack_plus)
    l_full = -(plan.SVd @ f_op + plan.SHd @ h_op)
    return l_full.tocsc(), f_op, h_op


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


def _nodal_d1(values: np.ndarray, d1x: float, x1_order: int) -> np.ndarray:
    """Nodal x1-derivative along axis 0 with the assembly stencil."""
    if x1_order == 2:
        return (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2.0 * d1x)
    return (
        np.roll(values, 2, axis=0) - 8.0 * np.roll(values, 1, axis=0)
        + 8.0 * np.roll(values, -1, axis=0) - np.roll(values, -2, axis=0)
    ) / (12.0 * d1x)


def _recover(plan: _Plan, p_all: np.ndarray, f_vec: np.ndarray, h_vec: np.ndarray,
             pack_minus: MetricPack, pack_plus: MetricPack) -> HeadSolution:
    n = plan.n1
    mm = plan.m_minus
    levels = p_all.reshape(plan.n_levels, n).T  # (n1, levels)

    p_minus = StripField(pack_minus.grid, levels[:, :mm].copy())
    p_plus = StripField(pack_plus.grid, levels[:, mm - 1:].copy())

    def hrow(lh: int) -> np.ndarray:
        return h_vec[lh * n:(lh + 1) * n]

    # conservative top trace: the flux balancing the top half cells
    f_top = f_vec[-n:] - (plan.dp / 2.0) * hrow(plan.n_hrow_levels - 1)
    w2_trace = PeriodicField1D(-f_top)

    # permeability-line fluxes recovered from each side's half cell
    f_below = f_vec[(mm - 2) * n:(mm - 1) * n] - (plan.dm / 2.0) * hrow(mm - 1)
    f_above = f_vec[(mm - 1) * n:mm * n] + (plan.dp / 2.0) * hrow(mm)

    def bulk_w(pack: MetricPack, p: StripField):
        dp1 = _nodal_d1(p.values, plan.d1, plan.x1_order)
        dp2 = vertical_derivative(p.values, pack.grid.dx2)
        w1 = -(pack.k11 * dp1 + pack.k12 * dp2)
        w2 = -(pack.k12 * dp1 + pack.k22 * dp2)
        return StripField(pack.grid, w1), StripField(pack.grid, w2)

    w1_minus, w2_minus = bulk_w(pack_minus, p_minus)
    w1_plus, w2_plus = bulk_w(pack_plus, p_plus)

    return HeadSolution(
        p_plus=p_plus,
        p_minus=p_minus,
        w1_plus=w1_plus,
        w2_plus=w2_plus,
        w1_minus=w1_minus,
        w2_minus=w2_minus,
        gamma_trace_w2=w2_trace,
        perm_flux_above=PeriodicField1D(f_above),
        perm_flux_below=PeriodicField1D(f_below),
        top_flux_total=float(plan.d1 * np.sum(f_top)),
    )


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _split_system(plan: _Plan, l_full: sp.csc_matrix, h: PeriodicField1D):
    l_free = l_full[:, :plan.n_free].tocsc()
    l_top = l_full[:, plan.n_free:]
    b = -(l_top @ h.values)
    return l_free, b


def _relative_residual(l_free, x, b) -> float:
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    if scale == 0.0:
        return float(np.max(np.abs(l_free @ x))) if x.size else 0.0
    return float(np.max(np.abs(l_free @ x - b))) / scale


def _solve_direct(l_free: sp.csc_matrix, b: np.ndarray) -> np.ndarray:
    try:
        lu = spla.splu(l_free, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # singular factor
        raise NonSPDSystem(f"sparse factorization failed: {exc}") from exc
    return lu.solve(b)


def _level_stencil(l0_free: sp.spmatrix, n1: int) -> np.ndarray:
    """Stencil of the free flat operator as a (levels, 3, n1) array.

    Entry [g, d, m] couples node (level g, column j) to node (level g + d - 1,
    column j + m mod n1).  It is read off the first row of each level block;
    every other row must repeat it, i.e. the operator must be circulant in x1
    and tridiagonal across levels.
    """
    full = l0_free.tocoo()
    lev_r, j_r = np.divmod(full.row, n1)
    lev_c, j_c = np.divmod(full.col, n1)
    band = lev_c - lev_r + 1
    assert np.all((band >= 0) & (band <= 2)), "flat operator not tridiagonal in levels"
    stencil = np.zeros((l0_free.shape[0] // n1, 3, n1))
    first = j_r == 0
    stencil[lev_r[first], band[first], j_c[first]] = full.data[first]
    tol = 1e-13 * float(np.max(np.abs(stencil)))
    mismatch = np.abs(full.data - stencil[lev_r, band, (j_c - j_r) % n1])
    assert np.all(mismatch <= tol) and (
        np.count_nonzero(np.abs(full.data) > tol)
        == n1 * np.count_nonzero(np.abs(stencil) > tol)), "flat operator not circulant in x1"
    return stencil


class _FlatInverse:
    """Exact inverse of the free flat-metric operator (k12 = 0, constant k11
    and k22 per strip).

    That operator is circulant in x1 and tridiagonal across levels, so an
    rfft in x1 splits it into one tridiagonal level system per Fourier mode
    (Concus & Golub 1973).  The per-mode systems are stacked mode after mode
    into a single tridiagonal matrix: the floor level has no level below and
    the top free level none above, so consecutive modes do not couple.  Its
    LU factors (LAPACK gttrf) are computed once; each solve is one rfft, one
    gttrs call over all modes and one irfft.  No dense per-mode block is
    formed.
    """

    def __init__(self, l0_free: sp.spmatrix, n1: int):
        from scipy.linalg import lapack  # already loaded by scipy.sparse.linalg

        self.n1 = n1
        self.n_lev = l0_free.shape[0] // n1
        # (Lx)^_k = sum_m T[m] e^{+2 pi i k m / n1} x^_k = conj(rfft(T))_k x^_k
        sym = np.conj(np.fft.rfft(_level_stencil(l0_free, n1), axis=-1))
        lower = sym[:, 0].T.ravel()[1:]
        upper = sym[:, 2].T.ravel()[:-1]
        *self._factors, info = lapack.zgttrf(lower, sym[:, 1].T.ravel(), upper)
        assert info == 0, "flat operator is singular"
        self._gttrs = lapack.zgttrs

    def solve(self, r: np.ndarray) -> np.ndarray:
        modes = np.fft.rfft(r.reshape(self.n_lev, self.n1), axis=1)
        x, _ = self._gttrs(*self._factors, modes.T.reshape(-1, 1))
        return np.fft.irfft(x.reshape(-1, self.n_lev).T, n=self.n1, axis=1).ravel()


@lru_cache(maxsize=8)
def _flat_inverse(n1: int, m_minus: int, m_plus: int, x1_order: int,
                  beta_plus: float, beta_minus: float) -> _FlatInverse:
    """Flat-metric inverse: the Krylov preconditioner and the Picard splitting."""
    plan = _plan(n1, m_minus, m_plus, x1_order)
    l0_full, _, _ = _assemble(plan, _flat_pack(StripGrid(LOWER, n1, m_minus), beta_minus),
                              _flat_pack(StripGrid(UPPER, n1, m_plus), beta_plus))
    return _FlatInverse(l0_full[:, :plan.n_free], n1)


def _bicgstab(a: sp.spmatrix, b: np.ndarray, precond, rtol: float) -> np.ndarray:
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
            v = a @ p_pre
            alpha = rho / dot(b, v)
            x += alpha * p_pre
            s = r - alpha * v
            if np.sqrt(dot(s, s)) <= stop:
                return x
            s_pre = precond(s)
            t = a @ s_pre
            omega = dot(t, s) / dot(t, t)
            x += omega * s_pre
            r = s - omega * t
            if np.sqrt(dot(r, r)) <= stop:
                return x
            rho_prev = rho
    except ZeroDivisionError:
        raise SolverDivergence("BiCGSTAB broke down") from None
    raise SolverDivergence(f"BiCGSTAB stalled: not converged in {KRYLOV_MAXITER} iterations")


def _solve_krylov(l_free: sp.csc_matrix, b: np.ndarray, plan: _Plan,
                  beta_plus: float, beta_minus: float) -> np.ndarray:
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        return np.zeros_like(b)
    flat = _flat_inverse(plan.n1, plan.m_minus, plan.m_plus, plan.x1_order,
                         beta_plus, beta_minus)
    # |r|_inf <= |r|_2 <= rtol |b|_2 <= rtol sqrt(n_free) |b|_inf, so this
    # rtol meets the max-norm residual gate of solve_head.  The right side is
    # normalised so that the inner products of tiny data cannot underflow.
    x = _bicgstab(l_free, b / scale, flat.solve, RESIDUAL_TOL / np.sqrt(plan.n_free))
    return x * scale


def solve_head(pack_plus: MetricPack, pack_minus: MetricPack, h: PeriodicField1D,
               profile: PermeabilityProfile, solver: str = "direct") -> HeadSolution:
    """Assemble and solve the head system; recover the velocity and traces.

    solver: "direct" (sparse LU, the default here and the test oracle) or
    "krylov" (BiCGSTAB preconditioned by the exact flat-metric inverse, the
    default of SimConfig; the head matrix is not symmetric when k12 != 0).
    Either way the max-norm residual relative to the right side must come
    out below RESIDUAL_TOL, else SolverDivergence is raised; a Krylov stall
    or breakdown raises it too.
    """
    _check_inputs(pack_plus, pack_minus, h, profile)
    plan = _plan(pack_plus.grid.n1, pack_minus.grid.n2, pack_plus.grid.n2, X1_ORDER)
    l_full, f_op, h_op = _assemble(plan, pack_minus, pack_plus)
    l_free, b = _split_system(plan, l_full, h)
    if np.any(l_free.diagonal() <= 0.0):
        raise NonSPDSystem("assembled system lost positive diagonal")

    if solver == "direct":
        x = _solve_direct(l_free, b)
    elif solver == "krylov":
        x = _solve_krylov(l_free, b, plan, profile.beta_plus, profile.beta_minus)
    else:
        raise ValueError(f"unknown solver {solver!r}")

    res = _relative_residual(l_free, x, b)
    if not np.isfinite(res) or res > RESIDUAL_TOL:
        raise SolverDivergence(f"head solve residual {res:.3e} exceeds {RESIDUAL_TOL}")

    p_all = np.concatenate([x, h.values])
    return _recover(plan, p_all, f_op @ p_all, h_op @ p_all, pack_minus, pack_plus)


def _flat_pack(grid: StripGrid, beta: float) -> MetricPack:
    zeros = np.zeros((grid.n1, grid.n2))
    return assemble_metric(grid, beta, StripField(grid, zeros.copy()), zeros, zeros)


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
    plan = _plan(pack_plus.grid.n1, pack_minus.grid.n2, pack_plus.grid.n2, X1_ORDER)
    l_full, f_op, h_op = _assemble(plan, pack_minus, pack_plus)
    l_free, b = _split_system(plan, l_full, h)
    flat = _flat_inverse(plan.n1, plan.m_minus, plan.m_plus, plan.x1_order,
                         profile.beta_plus, profile.beta_minus)

    x = np.zeros(plan.n_free)
    prev_diff = np.inf
    growth_streak = 0
    for _ in range(max_iter):
        x_new = x + flat.solve(b - l_free @ x)
        diff = float(np.max(np.abs(x_new - x))) if x.size else 0.0
        x = x_new
        if diff <= tol * max(1.0, float(np.max(np.abs(x), initial=0.0))):
            p_all = np.concatenate([x, h.values])
            return _recover(plan, p_all, f_op @ p_all, h_op @ p_all,
                            pack_minus, pack_plus)
        growth_streak = growth_streak + 1 if diff > prev_diff else 0
        if growth_streak >= 3 or not np.isfinite(diff):
            raise NoContraction(
                f"fixed-point head iteration diverging (step change {diff:.3e})"
            )
        prev_diff = diff
    raise NoContraction(f"fixed-point head iteration not converged in {max_iter} steps")
