"""Scalar diagnostics: linearized decay rates, norms, energy ledgers.

Interface norms are spectral; bulk integrals are weighted sums with the head
solution's quadrature column (the trapezoid rule in x2, the exact nodal
quadrature in x1) over both strips at once.  The Darcy dissipation of the
L^2 energy law is not computed here: pressure's recovery integrates it from
the head gradient and the head solution carries it.  Diagnostics are
observers: they never mutate state and never abort a run; a non-finite
value is reported as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffeo import PermeabilityProfile
from .errors import InsufficientData
from .pressure import HeadSolution
from .spectral_core import PeriodicField1D, sobolev_norm, x1_derivative

__all__ = [
    "dispersion_rate",
    "dispersion_table",
    "EnergyReport",
    "report",
    "decay_fit",
]

DECAY_FIT_MIN_SAMPLES = 10


# ---------------------------------------------------------------------------
# linearized decay oracle
# ---------------------------------------------------------------------------


def dispersion_rate(k: int, profile: PermeabilityProfile) -> float:
    """Decay rate sigma(k) of a small single-mode interface perturbation over
    the flat two-layer rest state.

    The head is a+ cosh(k x2) + b+ sinh(k x2) on (-1, 0) and
    a- cosh(k (x2 + 2)) on (-2, -1) (floor Neumann built in), with unit
    interface data, continuity and beta-weighted flux continuity at
    x2 = -1; sigma(k) = -beta_plus * dP/dx2 at the top.  Eliminating the
    coefficients gives, with T = tanh k,

        sigma(k) = -beta_plus k T (beta_plus + beta_minus) / (beta_plus + beta_minus T^2),

    which is -beta k tanh(2k) for beta_plus == beta_minus.  Requires a flat
    permeability curve.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("mode number k must be a positive integer (k = 0 is conserved)")
    if float(np.max(np.abs(profile.f.values))) > 1e-12:
        raise ValueError("dispersion_rate requires a flat permeability curve (f = 0)")
    bp, bm = profile.beta_plus, profile.beta_minus
    t = math.tanh(k)
    return -bp * k * t * (bp + bm) / (bp + bm * t * t)


def dispersion_table(k_max: int, profile: PermeabilityProfile) -> np.ndarray:
    """Linearized decay rates sigma(k) of the modes k = 1..k_max, in order;
    every one is negative, since PermeabilityProfile admits positive betas
    only."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return np.array([dispersion_rate(k, profile) for k in range(1, k_max + 1)])


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


def report(state, head: HeadSolution, h0_l2_sq: float) -> EnergyReport:
    """Assemble the scalar report for one state.

    `state` carries h, t and the running dissipation integral; `head` is the
    head solved at that state, with its stacked velocity and quadrature
    weights; h0_l2_sq, the squared L^2 norm of the initial h, is the
    reference of the energy-law residual.
    """
    h = state.h
    t = float(state.t)

    l2_h = sobolev_norm(h, 0.0)
    h2_h = sobolev_norm(h, 2.0)
    h2p5_h = sobolev_norm(h, 2.5)
    hpp = PeriodicField1D(x1_derivative(h.values, order=2))
    script_e = sobolev_norm(hpp, 0.0) ** 2

    d11w = [x1_derivative(w, order=2) for w in (head.w1, head.w2)]
    script_d = sum(float(np.sum(head.weights * (d * d))) for d in d11w)
    rt_margin = float(np.min(head.gamma_trace_w2)) + 1.0

    if h0_l2_sq > 0.0:
        defect = l2_h ** 2 + 2.0 * state.diss_l2_integral - h0_l2_sq
        l2_residual = defect / h0_l2_sq
    else:
        l2_residual = 0.0

    coupling = sobolev_norm(hpp, 0.5) / math.sqrt(script_d) if script_d > 0 else float("nan")

    return EnergyReport(
        t=t, l2_h=l2_h, h2_h=h2_h, h2p5_h=h2p5_h,
        script_E=script_e, script_D=script_d, rt_margin=rt_margin,
        l2_law_residual=l2_residual, coupling_ratio=coupling,
    )


def decay_fit(reports) -> tuple[float, float]:
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
    if len(ts) < DECAY_FIT_MIN_SAMPLES:
        raise InsufficientData(
            f"need >= {DECAY_FIT_MIN_SAMPLES} positive samples for a decay fit, "
            f"got {len(ts)}"
        )
    ts = np.asarray(ts)
    logs = np.asarray(logs)
    slope, intercept = np.polyfit(ts, logs, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-2.0 * slope), float(r_sq)
