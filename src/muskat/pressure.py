"""Variable-coefficient elliptic solve for the pulled-back hydraulic head.

The unknown is P = Q + delta_psi (modified pressure plus vertical shift),
which satisfies div(K grad P) = 0 in each strip with P = h on the interface
line, continuity of P and of the vertical K-flux across the permeability
line, and zero flux through the floor.  The pulled-back velocity is
w = -K grad P; the interface moves with the trace of w2 on the top line.

Discretization: vertex-centered cell balances on the shared grid of both
strips, whose permeability line is one level.  One map, _CellBalance, takes
the nodal head on that grid to the balance of div w over each level's cell:

    L = D1^T H k11 D1 + delta^T k22f delta + delta^T k12f A D1 + D1^T A^T k12f delta

with D1 one fourth-order antisymmetric x1-difference, delta the level
difference onto the faces, A the average onto them, H the trapezoid cell
heights and k22f, k12f face averages (k22f over the level spacing).  The
last term, the horizontal cross flux, is the adjoint of the third, so L is
symmetric by construction.  Half cells sit at the floor and at the top
line; the permeability line's cell is the two half cells on either side, so
its row is the balance of the normal K-flux across that internal interface,
a free row like any other.  The column sums of the vertical fluxes
telescope and those of the antisymmetric horizontal stencil vanish
identically, so the total flux through the top line is zero to solver
precision -- the discrete mass ledger.  The antisymmetry also makes the
discrete summation-by-parts of the horizontal terms exact, which keeps the
energy-law defect free of any horizontal-resolution floor.  The recovered
trace is a row of the same balance, the top-line row.  Recovery also
integrates the Darcy dissipation grad P . K grad P = -w . grad P over both
strips, from the gradient it forms for w, with the balance's own trapezoid
cell heights.  The permeability line appears once in the solve and twice,
once per strip, only in the outputs.

Solvers: "krylov", the default, is conjugate gradient on the balance
itself, no matrix formed, preconditioned by the exact inverse of the
flat-metric balance (k12 = 0, constant k11 = k22 = beta per strip), which
an rfft in x1 reduces to one tridiagonal level system per Fourier mode,
with bands read off the flat coefficient columns and the x1 stencil's
symbol.  Each is factored once from the floor up (Thomas), and a solve runs
both sweeps for all modes at once as two prefix sums along the levels, in
double precision, like the rest of the solve.  CG starts from a guess when
the caller has a nearby head (evolution passes the head of a neighbouring
RK stage) and from zero otherwise; its stopping test is relative to the
right side either way.  One apply of the balance at the solved head
serves both the residual gate (its free rows) and the recovery (its
top-line row).  The apply runs the x1 stencil without its 1/(12 dx1),
which its coefficients carry.  Every run solves this way, with numpy only.
"direct" is sparse LU of the matrix read off the balance by coloured unit
probes (Curtis, Powell & Reid 1974): the oracle the Krylov path is tested
against, and the only code that imports scipy (the test extra), on its
first call.
"picard" is a fixed-point cross-check built on the same flat inverse; all
three solvers share solve_head's scaling, residual gate and recovery.
flat_inverse(...).sigma_h, off the last pivot of that factorization, is the
rate of each interface mode over the flat metric: the linear part that
evolution's exponential step integrates exactly; the slowest sets its step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .diffeo import (
    LOWER,
    UPPER,
    MetricPack,
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

__all__ = ["HeadSolution", "solve_head", "flat_inverse"]

RESIDUAL_TOL = 1e-10
KRYLOV_MAXITER = 500
# _picard converges once a step changes no value of the scaled head by more
# than PICARD_TOL * max(1, max|head|), and gives up after PICARD_MAX_ITER steps
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 100


@dataclass
class HeadSolution:
    """Head, pulled-back velocity and Darcy dissipation on both strips.

    p, w1 and w2 are stacked per strip, (n2_minus + n2_plus, n1): the lower
    strip's levels from the floor up, then the upper strip's, so the
    permeability line, one level of the solve, appears twice (rows
    n2_minus - 1 and n2_minus, equal in p).  weights is the quadrature
    column, dx1 times each level's trapezoid height in its strip, so
    sum(weights * g) integrates a nodal g over both strips; dissipation is
    that integral of grad P . K grad P = -w . grad P.

    gamma_trace_w2 holds the n1 samples of the conservative flux trace of w2
    on the top line (the value balancing the top half cells); its circle
    integral vanishes to solver precision.  cg_iterations counts the CG iterations of a Krylov
    solve (0 for the other solvers).
    """

    p: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    weights: np.ndarray
    n2_minus: int
    dissipation: float
    gamma_trace_w2: np.ndarray
    top_flux_total: float
    cg_iterations: int = 0

    # read-only (n1, n2) views of p per strip under .values, the layout of the
    # per-strip oracle in perfbench/check.py: the package's only (n1, n2) arrays
    @property
    def p_plus(self) -> SimpleNamespace:
        return self._oracle_view(self.p[self.n2_minus:])

    @property
    def p_minus(self) -> SimpleNamespace:
        return self._oracle_view(self.p[:self.n2_minus])

    @staticmethod
    def _oracle_view(rows: np.ndarray) -> SimpleNamespace:
        values = rows.T
        values.flags.writeable = False
        return SimpleNamespace(values=values)


# ---------------------------------------------------------------------------
# the cell balance
# ---------------------------------------------------------------------------


class _CellBalance:
    """Per-level cell balances of div w, w = -K grad P, on both strips.

    A head array is (n_lev + 1, n1) on the shared grid: the lower strip's
    levels from the floor up, the permeability line once, then the upper
    strip's levels, n_lev = m_minus + m_plus - 2.  Row s of the balance is
    the integral of div w over the cell of level s per unit x1-width: w2 on
    the face above minus w2 on the face below, plus the x1-difference of
    w1 times the cell height, whose k12 part is the node average of the
    face cross fluxes.  The top line has no face above, so its row is minus
    the conservative w2 trace there.  The permeability line's cell is the
    two half cells of its copies: its height k11 is the sum of theirs, and
    its faces are those of each strip.

    The coefficients come stacked per strip, (m_minus + m_plus, n1), the
    line once per strip, as from_packs and the outputs hold them, or as
    (m_minus + m_plus, 1) columns that broadcast along x1, as flat gives
    them; the constructor builds the shared grid's once.  Arguments name the
    upper strip first, as solve_head's do.  Free unknowns are the first
    n_lev rows of a head array, level after level of the shared grid.  In
    this order sparse LU of the probed matrix fills in about a quarter less
    than with the levels of each x1 column contiguous.
    """

    def __init__(self, grid_plus: StripGrid, grid_minus: StripGrid,
                 k11: np.ndarray, k12: np.ndarray, k22: np.ndarray):
        self.grid_plus, self.grid_minus = grid_plus, grid_minus
        self.n1, self.dx1 = grid_minus.n1, grid_minus.dx1
        self.m_minus = m_minus = grid_minus.n2
        self.m_plus = m_plus = grid_plus.n2
        self.n_lev = n_lev = m_minus + m_plus - 2
        dx2_minus, dx2_plus = grid_minus.dx2, grid_plus.dx2
        self.k11, self.k12, self.k22 = k11, k12, k22
        self.height = np.r_[_trapezoid_heights(m_minus, dx2_minus),
                            _trapezoid_heights(m_plus, dx2_plus)][:, None]

        def face_mean(k):  # no face joins the two copies of the line
            return np.delete(0.5 * (k[:-1] + k[1:]), m_minus - 1, axis=0)

        inv_dx2 = np.r_[np.full(m_minus - 1, 1.0 / dx2_minus),
                        np.full(m_plus - 1, 1.0 / dx2_plus)]
        self.face_k22 = face_mean(k22) * inv_dx2[:, None]
        # the apply differences with the integer stencil S = 12 dx1 D1, so
        # these two carry its scale: half the face k12 over 12 dx1, and
        # -height k11 over (12 dx1)^2
        stencil_scale = 12.0 * self.dx1
        self._face_k12 = (0.5 / stencil_scale) * face_mean(k12)
        neg_height_k11 = (-1.0 / stencil_scale ** 2) * self.height * k11
        self._neg_height_k11 = np.delete(neg_height_k11, m_minus, axis=0)
        self._neg_height_k11[m_minus - 1] += neg_height_k11[m_minus]
        # work buffers, allocated once per balance and never returned: the
        # x1-difference's periodic padding and its one scratch array, and
        # three face arrays of the apply
        self._padded = np.empty((n_lev + 1, self.n1 + 4))
        self._scratch = np.empty((n_lev + 1, self.n1))
        self._face = np.empty((3, n_lev, self.n1))

    @classmethod
    def from_packs(cls, pack_plus: MetricPack, pack_minus: MetricPack) -> "_CellBalance":
        return cls(pack_plus.grid, pack_minus.grid,
                   *(np.vstack([getattr(pack_minus, k), getattr(pack_plus, k)])
                     for k in ("k11", "k12", "k22")))

    @classmethod
    def flat(cls, n1: int, n2_plus: int, n2_minus: int, beta_plus: float,
             beta_minus: float) -> "_CellBalance":
        """The flat-metric balance: k12 = 0, k11 = k22 = beta per strip, as
        (n2_minus + n2_plus, 1) columns that broadcast along x1."""
        beta = np.r_[np.full(n2_minus, beta_minus), np.full(n2_plus, beta_plus)][:, None]
        return cls(StripGrid(UPPER, n1, n2_plus), StripGrid(LOWER, n1, n2_minus),
                   beta, np.zeros_like(beta), beta)

    def _stencil(self, v: np.ndarray) -> np.ndarray:
        """The fourth-order antisymmetric periodic x1-difference along axis 1
        times 12 dx1, (v[j-2] - v[j+2]) + 8 (v[j+1] - v[j-1]), as a new array."""
        w = self._padded
        w[:, 2:-2] = v
        w[:, :2] = v[:, -2:]
        w[:, -2:] = v[:, :2]
        out = np.subtract(w[:, :-4], w[:, 4:])
        eight = np.subtract(w[:, 3:-1], w[:, 1:-3], out=self._scratch)
        eight *= 8.0
        out += eight
        return out

    def _x1_difference(self, v: np.ndarray) -> np.ndarray:
        """The x1-difference D1 along axis 1: the stencil over 12 dx1."""
        out = self._stencil(v)
        out /= 12.0 * self.dx1
        return out

    def __call__(self, p: np.ndarray) -> np.ndarray:
        s1p = self._stencil(p)
        dp = np.subtract(p[1:], p[:-1], out=self._face[0])
        half_cross = np.multiply(self._face_k12, dp, out=self._face[1])
        cross = np.add(s1p[:-1], s1p[1:], out=self._face[2])
        cross *= self._face_k12
        # minus w2 on the faces: face k22 dp + half face k12 (d1p below + above)
        neg_w2_face = dp
        neg_w2_face *= self.face_k22
        neg_w2_face += cross
        # w1 times the cell height, over 12 dx1: its k12 part averages the
        # face cross fluxes
        side_flux = s1p
        side_flux *= self._neg_height_k11
        side_flux[:-1] -= half_cross
        side_flux[1:] -= half_cross
        rows = self._stencil(side_flux)
        rows[:-1] -= neg_w2_face
        rows[1:] += neg_w2_face
        return rows

    def heads(self, x: np.ndarray, top: np.ndarray) -> np.ndarray:
        """Head array from the free unknowns and the top-line values."""
        return np.vstack([x, top])

    def free_unknowns(self, p: np.ndarray) -> np.ndarray:
        """Free unknowns from a head array stacked per strip, as HeadSolution
        holds it: the top line and the upper copy of the line dropped."""
        m = self.m_minus
        return np.concatenate([p[:m], p[m + 1:-1]])

    def free_rows(self, x: np.ndarray, top: np.ndarray | None = None) -> np.ndarray:
        """Balance rows of the free nodes; with top omitted (zero) this is
        the head matrix applied to x."""
        return self(self.heads(x, np.zeros(self.n1) if top is None else top))[:-1]


def _trapezoid_heights(m: int, dx2: float) -> np.ndarray:
    heights = np.full(m, dx2)
    heights[[0, -1]] = dx2 / 2.0
    return heights


def _probe(balance: _CellBalance) -> "scipy.sparse.csc_matrix":
    """Sparse head matrix read off the balance by column colouring
    (Curtis, Powell & Reid 1974).

    A row couples to the adjacent levels only and to x1 columns at most
    four away (the x1-difference of an x1-difference).  Unit heads on every
    third level and every q-th column, q = n1 if n1 < 9 else the smallest
    divisor of n1 that is at least 9, so reach disjoint rows, and each
    response entry belongs to one seed.  A row thus has at most
    3 * min(9, n1) entries, and the triplets are written into buffers of
    that size per row, trimmed to the nonzeros.
    """
    import scipy.sparse as sp  # the oracle only: runs never load scipy

    n1, n_lev = balance.n1, balance.n_lev
    n_free = n1 * n_lev
    q = n1 if n1 < 9 else min(d for d in range(9, n1 + 1) if n1 % d == 0)
    # int32 indices: the index arrays are most of the probe's transient memory
    g = np.arange(n_lev, dtype=np.int32)[:, None]
    j = np.arange(n1, dtype=np.int32)[None, :]
    row_index = g * n1 + j
    capacity = 3 * min(9, n1) * n_free
    rows = np.empty(capacity, dtype=np.int32)
    cols = np.empty(capacity, dtype=np.int32)
    vals = np.empty(capacity)
    nnz = 0
    for a in range(3):
        g0 = g + (a - g + 1) % 3 - 1
        for c in range(q):
            seed = np.zeros((n_lev, n1))
            seed[a::3, c::q] = 1.0
            response = balance.free_rows(seed)
            hit = response != 0.0
            j0 = (j + (c - j + 4) % q - 4) % n1
            end = nnz + np.count_nonzero(hit)
            rows[nnz:end] = row_index[hit]
            cols[nnz:end] = (g0 * n1 + j0)[hit]
            vals[nnz:end] = response[hit]
            nnz = end
    return sp.csc_matrix((vals[:nnz], (rows[:nnz], cols[:nnz])), shape=(n_free, n_free))


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
        if float(np.min(pack.k11)) <= 0.0:
            raise NonSPDSystem("conductivity tensor not positive definite: k11 <= 0")


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def _recover(balance: _CellBalance, p: np.ndarray, rows: np.ndarray, scale: float,
             cg_iterations: int = 0) -> HeadSolution:
    """Velocity, dissipation and trace at the head array p, all from the
    balance, with every output multiplied by scale (the dissipation, which
    is quadratic, by scale squared).  rows is balance(p), which the caller
    has formed: the trace is its last row.  The outputs are stacked per
    strip, so p and its x1-difference are expanded to two copies of the
    permeability line here, once."""
    m = balance.m_minus

    def stacked(a):
        return np.concatenate([a[:m], a[m - 1:]])

    d1p = stacked(balance._x1_difference(p))
    p = stacked(p)
    d2p = np.concatenate([vertical_derivative(p[:m], balance.grid_minus.dx2),
                          vertical_derivative(p[m:], balance.grid_plus.dx2)])
    w1 = -(balance.k11 * d1p + balance.k12 * d2p)
    w2 = -(balance.k12 * d1p + balance.k22 * d2p)
    weights = balance.dx1 * balance.height
    dissipation = -scale * scale * float(np.sum(weights * (w1 * d1p + w2 * d2p)))
    top = scale * rows[-1]
    return HeadSolution(
        p=scale * p, w1=scale * w1, w2=scale * w2, weights=weights, n2_minus=m,
        dissipation=dissipation,
        gamma_trace_w2=-top,
        top_flux_total=float(balance.dx1 * np.sum(top)),
        cg_iterations=cg_iterations,
    )


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


class _FlatInverse:
    """Exact inverse of the free flat-metric balance (k12 = 0, constant k11
    and k22 per strip).

    That operator is circulant in x1 and tridiagonal across levels, so an
    rfft in x1 splits it into one tridiagonal level system per Fourier mode
    (Concus & Golub 1973).  Its bands are read off the flat balance's
    columns: row g couples to each adjacent free level by minus the face k22
    between them, and its diagonal is the sum of its faces' k22 plus -height
    k11 times s2(k), the real symbol of the x1 stencil applied twice (the
    rfft of that response to a unit head in column 0).  Each mode's system
    is a symmetric M-matrix, factored once from the floor up (Thomas): the
    pivots u, and the multipliers m[g] = face[g-1] / u[g-1] in (0, 1], which
    serve both sweeps.  A pivot is kept as its excess over its upper face,
    u[g] = face[g] + d[g], with d[0] = e[0], d[g] = m[g] d[g-1] + e[g] and
    e = (-height k11) s2 >= 0: no step subtracts, so d = 0 exactly where
    s2 = 0, at k = 0 and n1/2 (the diagonal minus m[g] face[g-1] cancels
    there, by up to 2e-11 of max|sigma_h| at contrast 1e5).  For a right
    side b:

        forward  y[g] = b[g] + m[g] y[g-1]
        back     x[g] = y[g] / u[g] + m[g+1] x[g+1]

    With R the running product of m, both are prefix sums,
    y = R cumsum(b / R) and x = revcumsum(R y / u) / R, so a solve is one
    rfft, three multiplies by kept factors (1/R, R^2/u, 1/R) in the float
    view of the modes, repeated for the re/im pairs, two cumsums along the
    levels in its complex view (about twice as fast as in the float view)
    and one irfft, all modes at once.  The products restart, carrying one
    row into the next block, wherever R^2 would fall below the smallest
    normal float times max(1, u), so that no factor overflows or goes
    subnormal; the benchmark and acceptance grids need one block, and
    1024 x (129+129) needs two.  It all runs in double precision: a
    single-precision flat solve saved about 5-10% of run time but stalled
    CG from a permeability contrast of 1e5 at 128 x (64+64), where double
    precision takes 9 iterations.
    Fast diagonalisation (an eigh of the level pencil, then two gemm per
    solve) was measured and not taken: it is BLAS, which OpenBLAS threads,
    and on a shared two-core host its build took up to 354 ms and its
    slowest solves 16-32 ms at 192 x (96+96); single-threaded its solve was
    still slower than the band solve.

    sigma_h is the top-line Dirichlet-to-Neumann symbol of the flat balance:
    mode k of h_t = w2 is sigma_h[k] times mode k of h, k = 0..n1/2.  It is
    minus the Schur complement of the free levels in the top line's row,
    -(face_top / u_last * d_last + e_top) with the last pivot and its
    excess: real, nonpositive, and 0.0 at both rest modes.
    """

    def __init__(self, flat: _CellBalance):
        self.n1, n_lev = flat.n1, flat.n_lev
        unit = np.zeros((n_lev + 1, self.n1))
        unit[:, 0] = 1.0
        s2 = np.fft.rfft(flat._stencil(flat._stencil(unit))[0]).real
        face = flat.face_k22[:, 0]
        e = flat._neg_height_k11 * s2
        # no face below the floor; the last free row's upper neighbour is
        # the top line, which is not free
        u, m = np.empty_like(e[:-1]), np.zeros_like(e[:-1])
        d = e[0]
        u[0] = face[0] + d
        for g in range(1, n_lev):
            m[g] = face[g - 1] / u[g - 1]
            d = m[g] * d + e[g]
            u[g] = face[g] + d
        # running products of m, restarted at each block's first row
        smallest = np.finfo(float).tiny * np.maximum(u, 1.0)
        r = np.ones_like(u)
        starts = [0]
        while True:
            r[starts[-1] + 1:] = np.cumprod(m[starts[-1] + 1:], axis=0)
            low = np.flatnonzero(np.any(r * r < smallest, axis=1))
            if low.size == 0:
                break
            starts.append(int(low[0]))
            r[low[0]] = 1.0
        self._blocks = list(zip(starts, starts[1:] + [n_lev]))
        self._m, self._r = np.repeat(m, 2, axis=1), np.repeat(r, 2, axis=1)
        self._inv_r = 1.0 / self._r
        self._r2_over_u = self._r * self._r / np.repeat(u, 2, axis=1)
        self.sigma_h = -(face[-1] / u[-1] * d + e[-1])
        self.sigma_h.setflags(write=False)  # every caller shares the cached array

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The flat inverse applied to the free rows r: both sweeps as
        prefix sums, block by block, on the rfft spectrum of r."""
        spectrum = np.fft.rfft(r)
        d = spectrum.view(np.float64)
        d *= self._inv_r
        for b, e in self._blocks:  # forward: d becomes y / R
            if b:
                d[b] += self._m[b] * (self._r[b - 1] * d[b - 1])
            np.cumsum(spectrum[b:e], axis=0, out=spectrum[b:e])
        d *= self._r2_over_u
        for b, e in reversed(self._blocks):  # back: d becomes x R
            if e < len(d):
                d[e - 1] += self._r[e - 1] * (self._m[e] * d[e])
            tail = spectrum[b:e][::-1]
            np.cumsum(tail, axis=0, out=tail)
        d *= self._inv_r
        return np.fft.irfft(spectrum, n=self.n1)


@lru_cache(maxsize=8)
def flat_inverse(n1: int, n2_plus: int, n2_minus: int,
                 beta_plus: float, beta_minus: float) -> _FlatInverse:
    """The flat-metric inverse, shared: CG's preconditioner and _picard's
    splitting (.solve), and the flat top-line rates sigma_h that
    evolution's exponential step integrates and its step is set by."""
    return _FlatInverse(_CellBalance.flat(n1, n2_plus, n2_minus, beta_plus, beta_minus))


def _cg(apply, b: np.ndarray, precond, rtol: float,
        x0: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradient (Hestenes & Stiefel 1952) from x0,
    or from zero when x0 is None; returns the solution and the iteration
    count.

    Starts from r = b - apply(x0) and stops once |r|_2 <= rtol |b|_2, so a
    good start saves iterations without loosening the test, and an x0 that
    already meets it returns after 0 iterations.  A start with |r|_2 > |b|_2
    is worse than zero and is dropped: one far larger than the solution
    (the guess for a near-zero interface, scaled by 1 / max|h|) leaves
    roundoff of order |L| |x0| in the residual, which no iteration removes,
    and one that overflows leaves a non-finite residual, which fails too.

    Raises NonSPDSystem when a search direction has p.Lp <= 0,
    SolverDivergence on a non-finite value or after KRYLOV_MAXITER
    iterations.  x, r and p are updated in place through one scratch
    vector; z and lp are the new arrays that precond and apply return.
    Inner products are einsum, not BLAS dot: OpenBLAS threads ddot on long
    vectors, and with another process busy on a two-core host that made a
    reference-scale solve about nine times slower; einsum also beats
    (u * v).sum(), which allocates the product.
    """
    def dot(u, v):
        return float(np.einsum("ij,ij->", u, v))

    b_sq = dot(b, b)
    x, r = np.zeros_like(b), b.copy()
    if x0 is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            r0 = b - apply(x0)
            start = dot(r0, r0) <= b_sq
        if start:
            x, r = x0.copy(), r0
    p = np.zeros_like(b)
    scratch = np.empty_like(b)
    rz_prev = 1.0
    stop = rtol * np.sqrt(b_sq)
    iterations = 0
    while not np.sqrt(dot(r, r)) <= stop:  # a NaN residual iterates on
        if iterations == KRYLOV_MAXITER:
            raise SolverDivergence(f"CG stalled: not converged in {KRYLOV_MAXITER} iterations")
        iterations += 1
        z = precond(r)
        rz = dot(r, z)
        p *= rz / rz_prev
        p += z
        lp = apply(p)
        curvature = dot(p, lp)
        if not np.isfinite(curvature):
            raise SolverDivergence("CG diverged: non-finite p.Lp")
        if curvature <= 0.0:
            raise NonSPDSystem(f"head operator not positive definite: p.Lp = {curvature:.3e}")
        alpha = rz / curvature
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, lp, out=scratch)
        rz_prev = rz
    return x, iterations


def _picard(apply, b: np.ndarray, precond) -> np.ndarray:
    """Fixed-point iteration x <- x + precond(b - apply(x)) from zero: with
    precond = L0^-1, x <- L0^-1 (b - (L - L0) x).  Contraction needs the
    small-shift regime; raises NoContraction when the step change grows
    three times in a row or is not finite, or after PICARD_MAX_ITER steps."""
    x = np.zeros_like(b)
    prev_diff = np.inf
    growth_streak = 0
    for _ in range(PICARD_MAX_ITER):
        x_new = x + precond(b - apply(x))
        diff = float(np.max(np.abs(x_new - x)))
        x = x_new
        if diff <= PICARD_TOL * max(1.0, float(np.max(np.abs(x)))):
            return x
        growth_streak = growth_streak + 1 if diff > prev_diff else 0
        if growth_streak >= 3 or not np.isfinite(diff):
            raise NoContraction(
                f"fixed-point head iteration diverging (step change {diff:.3e})"
            )
        prev_diff = diff
    raise NoContraction(
        f"fixed-point head iteration not converged in {PICARD_MAX_ITER} steps")


def _solve_direct(balance: _CellBalance, b: np.ndarray) -> np.ndarray:
    import scipy.sparse.linalg as spla  # the oracle only: runs never load scipy

    l_free = _probe(balance)
    if np.any(l_free.diagonal() <= 0.0):
        raise NonSPDSystem("head matrix lost positive diagonal")
    try:
        lu = spla.splu(l_free, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # singular factor
        raise NonSPDSystem(f"sparse factorization failed: {exc}") from exc
    return lu.solve(b.ravel()).reshape(b.shape)


def solve_head(pack_plus: MetricPack, pack_minus: MetricPack, h: PeriodicField1D,
               profile: PermeabilityProfile, solver: str = "krylov",
               guess: np.ndarray | None = None) -> HeadSolution:
    """Solve the head system; recover the velocity and traces.

    solver: "krylov" (the default and every run's: CG on the matrix-free
    balance, preconditioned by the flat-metric inverse), "direct" (sparse
    LU of the probed matrix, the test oracle; it needs scipy, of the test
    extra) or "picard" (the fixed-point cross-check on the same flat
    inverse, _picard; NoContraction outside its small-shift regime).
    The system is solved for h / max|h| and every output rescaled, since it
    is linear in h; h = 0 gives the exact zero solution.

    guess: None, or the head p of a nearby solution, stacked as
    HeadSolution's.  The Krylov path scales it by the same 1 / max|h| and
    starts CG there instead of at zero; its top line and the upper copy of
    the permeability line are not read.  The direct and Picard paths ignore
    it and report cg_iterations = 0.  The stopping test does not depend on
    the start.

    Whatever the solver, the max-norm residual relative to the right side
    must come out below RESIDUAL_TOL, else SolverDivergence is raised; a CG
    stall or non-finite value raises it too.  NonSPDSystem is raised for
    k11 <= 0, by CG's curvature test and by the direct path's diagonal check.
    """
    if solver not in ("direct", "krylov", "picard"):
        raise ValueError(f"unknown solver {solver!r}")
    _check_inputs(pack_plus, pack_minus, h, profile)
    balance = _CellBalance.from_packs(pack_plus, pack_minus)
    zero = np.zeros((balance.n_lev, balance.n1))
    scale = float(np.max(np.abs(h.values)))
    if scale == 0.0:
        p = balance.heads(zero, h.values)
        return _recover(balance, p, balance(p), 1.0)
    top = h.values / scale
    b = -balance.free_rows(zero, top)
    iterations = 0
    if solver == "direct":
        x = _solve_direct(balance, b)
    else:
        flat = flat_inverse(balance.n1, balance.m_plus, balance.m_minus,
                            profile.beta_plus, profile.beta_minus)
        if solver == "picard":
            x = _picard(balance.free_rows, b, flat.solve)
        else:
            with np.errstate(over="ignore"):  # inf for a subnormal h: _cg drops it
                x0 = None if guess is None else balance.free_unknowns(guess) / scale
            # |r|_inf <= |r|_2 <= rtol |b|_2 <= rtol sqrt(n_free) |b|_inf, so
            # this rtol meets the max-norm residual gate below
            x, iterations = _cg(balance.free_rows, b, flat.solve,
                                RESIDUAL_TOL / np.sqrt(b.size), x0)
    # one apply serves the gate and the recovery: the free rows of the
    # balance at (x, top) are L x - b
    p = balance.heads(x, top)
    rows = balance(p)
    res = float(np.max(np.abs(rows[:-1]))) / float(np.max(np.abs(b)))
    if not np.isfinite(res) or res > RESIDUAL_TOL:
        raise SolverDivergence(f"head solve residual {res:.3e} exceeds {RESIDUAL_TOL}")
    return _recover(balance, p, rows, scale, iterations)

