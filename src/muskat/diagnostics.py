"""Scalar diagnostics: linearized decay rates, norms, energy ledgers.

Interface norms are spectral; bulk integrals use the trapezoid rule in x2 and
the exact nodal quadrature in x1.  Diagnostics are observers: they never
mutate state and never abort a run; non-finite values are recorded as flags
on the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffeo import MetricPack, PermeabilityProfile, StripGrid
from .errors import InsufficientData
from .pressure import HeadSolution
from .spectral_core import PeriodicField1D, deriv, sobolev_norm, x1_derivative

__all__ = [
    "dispersion_rate",
    "dispersion_table",
    "DispersionTable",
    "EnergyReport",
    "History",
    "report",
    "decay_fit",
    "dissipation_l2",
    "strip_integral",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# linearized decay oracle
# ---------------------------------------------------------------------------


def dispersion_rate(k: int, profile: PermeabilityProfile) -> float:
    """Decay rate sigma(k) of a small single-mode interface perturbation over
    the flat two-layer rest state.

    Solves the per-mode system for the head profile a+ cosh(k x2) +
    b+ sinh(k x2) on (-1, 0) and a- cosh(k (x2 + 2)) on (-2, -1) (floor
    Neumann built in), with unit interface data, continuity and beta-weighted
    flux continuity at x2 = -1; sigma(k) = -beta_plus * dP/dx2 at the top.
    Requires a flat permeability curve.  For beta_plus == beta_minus the
    closed form is sigma(k) = -beta * k * tanh(2k).
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("mode number k must be a positive integer (k = 0 is conserved)")
    if float(np.max(np.abs(profile.f.values))) > 1e-12:
        raise ValueError("dispersion_rate requires a flat permeability curve (f = 0)")
    bp, bm = profile.beta_plus, profile.beta_minus
    t = math.tanh(k)
    # unknowns (a+, b+, a-, sigma); interface rows scaled by 1/cosh(k)
    mat = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [1.0, -t, -1.0, 0.0],
        [-bp * t, bp, -bm * t, 0.0],
        [0.0, bp * k, 0.0, 1.0],
    ])
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    sigma = float(np.linalg.solve(mat, rhs)[3])
    return sigma


@dataclass
class DispersionTable:
    """Per-mode linearized decay rates, sigma(k) < 0 in the stable regime."""

    modes: np.ndarray
    sigma: np.ndarray


def dispersion_table(k_max: int, profile: PermeabilityProfile) -> DispersionTable:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    modes = np.arange(1, k_max + 1)
    sigma = np.array([dispersion_rate(int(k), profile) for k in modes])
    if np.any(sigma >= 0.0):
        raise ValueError("linearized rates must be negative for positive permeabilities")
    return DispersionTable(modes, sigma)


# ---------------------------------------------------------------------------
# bulk quadrature helpers
# ---------------------------------------------------------------------------


def strip_integral(values: np.ndarray, grid: StripGrid) -> float:
    """Integral over one strip: exact nodal quadrature in x1, trapezoid in x2."""
    per_level = values.sum(axis=0) * grid.dx1
    return float(_trapezoid(per_level, dx=grid.dx2))


def _strip_l2_sq(values: np.ndarray, grid: StripGrid) -> float:
    return strip_integral(values * values, grid)


def dissipation_l2(head: HeadSolution, pack_plus: MetricPack,
                   pack_minus: MetricPack) -> float:
    """Weighted kinetic dissipation sum over strips of (J/beta) |v|^2, where
    v is the velocity pulled back through w = J A v."""
    total = 0.0
    for pack, w1, w2 in (
        (pack_plus, head.w1_plus, head.w2_plus),
        (pack_minus, head.w1_minus, head.w2_minus),
    ):
        v1 = w1.values / pack.J
        v2 = (pack.d1 * w1.values) / pack.J + w2.values
        integrand = (pack.J / pack.beta) * (v1 * v1 + v2 * v2)
        total += strip_integral(integrand, pack.grid)
    return total


def _tangential_second_sq(w: np.ndarray, grid: StripGrid) -> float:
    return _strip_l2_sq(x1_derivative(w, order=2), grid)


# ---------------------------------------------------------------------------
# energy report
# ---------------------------------------------------------------------------


@dataclass
class EnergyReport:
    """All tracked scalars at one time.

    script_E = |h''|_0^2 and script_D = sum of squared L^2 norms of the
    tangential second derivative of w over both strips; rt_margin is
    min over the top line of (w2 + 1); l2_law_residual is the relative
    defect of |h|_0^2 + 2 * integral of the weighted dissipation against its
    initial value; coupling_ratio is |h''|_{0.5} / sqrt(script_D).
    """

    t: float
    l2_h: float
    h2_h: float
    h2p5_h: float
    script_E: float
    script_D: float
    rt_margin: float
    l2_law_residual: float
    coupling_ratio: float
    nan_flags: tuple = ()


@dataclass
class History:
    """The initial squared L^2 norm of h, the reference of the energy-law
    residual."""

    h0_l2_sq: float | None = None


def report(state, head: HeadSolution, metric, history: History) -> EnergyReport:
    """Assemble the scalar report for one sample and append it to history.

    `state` carries h, t and the running dissipation integral; `metric` is
    the (upper, lower) pack pair the head was solved with.
    """
    pack_plus, pack_minus = metric
    h = state.h
    t = float(state.t)

    l2_h = sobolev_norm(h, 0.0)
    h2_h = sobolev_norm(h, 2.0)
    h2p5_h = sobolev_norm(h, 2.5)
    hpp = deriv(h, 2)
    script_e = sobolev_norm(hpp, 0.0) ** 2

    script_d = (
        _tangential_second_sq(head.w1_plus.values, pack_plus.grid)
        + _tangential_second_sq(head.w2_plus.values, pack_plus.grid)
        + _tangential_second_sq(head.w1_minus.values, pack_minus.grid)
        + _tangential_second_sq(head.w2_minus.values, pack_minus.grid)
    )
    rt_margin = float(np.min(head.gamma_trace_w2.values)) + 1.0

    if history.h0_l2_sq is None:
        history.h0_l2_sq = l2_h ** 2
    if history.h0_l2_sq > 0.0:
        defect = l2_h ** 2 + 2.0 * state.diss_l2_integral - history.h0_l2_sq
        l2_residual = defect / history.h0_l2_sq
    else:
        l2_residual = 0.0

    coupling = sobolev_norm(hpp, 0.5) / math.sqrt(script_d) if script_d > 0 else float("nan")

    rep = EnergyReport(
        t=t, l2_h=l2_h, h2_h=h2_h, h2p5_h=h2p5_h,
        script_E=script_e, script_D=script_d, rt_margin=rt_margin,
        l2_law_residual=l2_residual, coupling_ratio=coupling,
    )
    flags = tuple(
        name for name in ("l2_h", "h2_h", "h2p5_h", "script_E",
                          "script_D", "rt_margin", "l2_law_residual",
                          "coupling_ratio")
        if not np.isfinite(getattr(rep, name))
    )
    rep.nan_flags = flags
    return rep


def decay_fit(reports, min_samples: int = 10) -> tuple[float, float]:
    """Exponential decay rate from the curvature-energy history.

    Least-squares slope of log |h''(t)|_0 over the usable samples; returns
    (gamma_fit, r_squared) with gamma_fit = -2 * slope.  A negative gamma_fit
    means the signal grew (stability suspect).
    """
    ts, logs = [], []
    for rep in reports:
        amp = math.sqrt(rep.script_E) if rep.script_E > 0 else 0.0
        if amp > 0.0 and np.isfinite(amp):
            ts.append(rep.t)
            logs.append(math.log(amp))
    if len(ts) < min_samples:
        raise InsufficientData(
            f"need >= {min_samples} positive samples for a decay fit, got {len(ts)}"
        )
    ts = np.asarray(ts)
    logs = np.asarray(logs)
    slope, intercept = np.polyfit(ts, logs, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-2.0 * slope), float(r_sq)
