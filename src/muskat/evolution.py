"""Interface evolution: h_t equals the top trace of the pulled-back vertical
velocity.  Exponential time differencing RK4 in time (ETDRK4, Cox &
Matthews 2002).  The linearized operator is first-order dissipative: its
rates are the top-line Dirichlet-to-Neumann symbol sigma_h of the
flat-metric head balance, real and nonpositive.  The step splits
h_t = trace(h) in the rfft modes of h into L = diag(sigma_h), which it
integrates exactly, and the rest N(h) = rfft(trace(h)) - L rfft(h), which
it takes in four stages.  So no rate limits the step's stability, and the
step is set by the slow dynamics: 3 dt_safety / (8 |sigma_h(1)|), three
sixteenths of the e-folding time of the slowest flat mode at the default
dt_safety.  sigma_h is zero at the mean and at the Nyquist mode, which the
run zeroes in the rfft of h at t = 0 and after every step.

What limits the step is the L2 energy law's dissipation integral, not
the interface.  Over a flat metric the dissipation of mode k decays like
exp(2 sigma_h(k) t), and the step integrates each mode's share of it with
ETDRK4's own weights at that rate, time reversed: they are exact for that
exponential times a quadratic in t.  Simpson's rule at this step lowers
criterion 3's doubling order to 1.88, under its bound of 1.9.

Each head solve is for an interface that differs by O(dt) from one solved
just before, so every solve of a run but the first starts CG from the
nearest head at hand (H_1 is the head of the state, H_a, H_b and H_c those
of the stages): stage a from H_1, stage b from H_a (both sit at t + dt/2),
stage c from 2 H_b - H_1, since c sits at t + dt, about twice as far from
the state as b, and the next state from H_c.  The start saves iterations
only; the solver's stopping test does not change.

Flow(config, f) is the right side h -> h_t of one run.  The lower strip's
map has the traces 0 and f, never h, so its metric is the same for every
interface: a Flow builds it at its first evaluation, after the upper
strip's map (so a degenerate upper map is reported first), and keeps it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .diffeo import (
    DEFAULT_J_MIN,
    LOWER,
    UPPER,
    PermeabilityProfile,
    StripGrid,
    harmonic_extension,
    metric_terms,
)
from .errors import (
    DiffeoDegenerate,
    GapViolation,
    NonSPDSystem,
    SolverDivergence,
)
from .pressure import HeadSolution, flat_inverse, solve_head
from .spectral_core import PeriodicField1D, sobolev_norm

__all__ = ["SimConfig", "SimState", "Trajectory", "Flow", "check_data", "step", "run",
           "is_finite_number"]

# the ETDRK4 weights are means over CONTOUR_POINTS points on the upper half
# of a radius-1 circle about each c = dt rate; the rates are real, so the
# real part of that mean is the mean over the whole circle of twice as many
CONTOUR_POINTS = 32

# the dissipation rule integrates mode k's share at exponent
# c = 2 sigma_h(k) dt, held at or above this floor: down to it the weights
# on the three dissipation values are all positive (the last one changes
# sign at c = -2.69), and below it they grow like exp(|c|) / c^2
DISSIPATION_EXPONENT_FLOOR = -2.0

# largest beta_minus / beta_plus a run accepts.  The lower strip's balance
# rows are that ratio times the upper ones, while the head solve's residual
# gate is relative to the right side, which sits in the upper rows, so the
# gate's roundoff floor grows like eps * beta_minus / beta_plus: both solvers
# failed it from 2e6 on 64 x (32+32) and 192 x (96+96).  This is one decade
# under that, but no guarantee on coarse grids: at 24 x (3+8) and contrast
# 5.3e4 a run fails the gate at t = 0 (ROADMAP item 4).  A more permeable
# upper strip has no such floor.
MAX_PERMEABILITY_CONTRAST = 1e5

TERMINATION_COMPLETED = "completed"
TERMINATION_GAP = "gap_violation"
TERMINATION_DEGENERATE = "diffeo_degenerate"
TERMINATION_SOLVER = "solver_failure"

# the errors that end a run, with the termination each one records
_TERMINATIONS = {
    GapViolation: TERMINATION_GAP,
    DiffeoDegenerate: TERMINATION_DEGENERATE,
    NonSPDSystem: TERMINATION_SOLVER,
    SolverDivergence: TERMINATION_SOLVER,
}


@dataclass(frozen=True)
class SimConfig:
    """Resolutions, physics constants, and run controls; ValueError when built
    with a value out of range (__post_init__)."""

    n1: int = 128
    n2_plus: int = 64
    n2_minus: int = 64
    beta_plus: float = 1.0
    beta_minus: float = 1.0
    dt_safety: float = 0.5
    t_end: float = 1.0
    gap_tol: float = 0.05
    j_min: float = DEFAULT_J_MIN
    report_every: int = 1
    output_dir: str | None = None

    def __post_init__(self):
        for name in ("n1", "n2_plus", "n2_minus", "report_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("beta_plus", "beta_minus", "dt_safety", "t_end", "gap_tol", "j_min"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.n1 < 4 or self.n1 % 2 != 0:
            raise ValueError("n1 must be even and >= 4")
        if self.n2_plus < 3 or self.n2_minus < 3:
            raise ValueError("n2_plus and n2_minus must be >= 3")
        if not (self.beta_plus > 0 and self.beta_minus > 0):
            raise ValueError("permeabilities must be positive")
        contrast = self.beta_minus / self.beta_plus
        if contrast > MAX_PERMEABILITY_CONTRAST:
            raise ValueError(
                f"beta_minus / beta_plus = {contrast:.3g} exceeds "
                f"{MAX_PERMEABILITY_CONTRAST:.0e}: beyond it the head solve's "
                "residual gate cannot be certified")
        if not (0.0 < self.dt_safety <= 1.0):
            raise ValueError("dt_safety must lie in (0, 1]")
        if not (self.t_end > 0):
            raise ValueError("t_end must be positive")
        if not (self.gap_tol > 0):
            raise ValueError("gap_tol must be positive")
        if not (0.0 < self.j_min < 1.0):
            raise ValueError("j_min must lie in (0, 1)")
        if self.report_every < 1:
            raise ValueError("report_every must be >= 1")

    @property
    def sigma_h(self) -> np.ndarray:
        """The flat-metric balance's top-line rates per rfft mode, 0.0 at
        k = 0 and n1/2: the cached pressure.flat_inverse(...).sigma_h."""
        return flat_inverse(self.n1, self.n2_plus, self.n2_minus,
                            self.beta_plus, self.beta_minus).sigma_h

    @property
    def dt(self) -> float:
        """Step: 3 dt_safety / (8 |sigma_h(1)|).

        |sigma_h(1)| is the smallest nonzero flat rate, so at the default
        dt_safety = 0.5 a step is three sixteenths of the e-folding time of
        the slowest flat mode.  The exponential step integrates every flat
        rate exactly, so the stiff rates set no limit: at 128 x (8+8) with
        equal betas, dt max|sigma_h| is 12.1, past classical RK4's 2.785,
        and muskat check's cfl probe finds the step stable there.  The step
        resolves the slow dynamics that the energy law and the decay fits
        measure, and the energy law's dissipation integral is what limits
        it (see the module docstring).
        """
        return self.dt_safety * 3.0 / (8.0 * abs(float(self.sigma_h[1])))

    def grids(self) -> tuple[StripGrid, StripGrid]:
        return (StripGrid(UPPER, self.n1, self.n2_plus),
                StripGrid(LOWER, self.n1, self.n2_minus))


def is_finite_number(value) -> bool:
    """An int or a float that converts to a finite float; not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


@dataclass
class SimState:
    """Evolving interface plus running step/ledger bookkeeping."""

    h: PeriodicField1D
    t: float = 0.0
    step_count: int = 0
    diss_l2_integral: float = 0.0
    # the sum of the means that step's projection removed: zero but for roundoff
    mean_drift: float = 0.0


@dataclass
class Trajectory:
    """Reported states and their reports, plus termination metadata and
    per-step ledgers.

    states[i] is the state that reports[i] describes.  initial_head and
    final_head are the head solutions of the first and the last reported
    state, kept so that snapshots need no second solve.  head_solves and
    cg_iterations total the head solves of the evaluated states and of the
    steps that completed, and their CG iterations.  max_abs_mean_h is the
    largest |mean_drift| of the evaluated states.
    """

    states: list[SimState] = field(default_factory=list)
    reports: list[diagnostics.EnergyReport] = field(default_factory=list)
    initial_head: HeadSolution | None = None
    final_head: HeadSolution | None = None
    termination: str = TERMINATION_COMPLETED
    error: str | None = None
    error_time: float | None = None
    max_abs_mean_h: float = 0.0
    max_abs_top_flux: float = 0.0
    head_solves: int = 0
    cg_iterations: int = 0


def _gap_margin(h_values: np.ndarray, f_values: np.ndarray) -> float:
    return float(np.min(h_values + 1.0 - f_values))


def _project_rest_modes(v: np.ndarray) -> np.ndarray:
    """Zero, in place, the two modes of the rfft v of h whose flat rate
    sigma_h is zero, and return v: the mean (mode 0), which the dynamics
    conserve, and the Nyquist mode k = n1/2, which the antisymmetric
    x1-difference does not see, so that it would never decay."""
    v[0] = v[-1] = 0.0
    return v


class Flow:
    """The right side h -> h_t of one run: its config, the permeability
    profile of its curve f and, once built, the lower strip's metric."""

    def __init__(self, config: SimConfig, f: PeriodicField1D):
        self.config = config
        self.profile = PermeabilityProfile(f, config.beta_plus, config.beta_minus)
        self._pack_minus = None

    def head(self, h_values: np.ndarray, guess=None) -> HeadSolution:
        """One evaluation: upper strip map, metric, head solve.

        guess is solve_head's start, the head p of a nearby solution or
        None.  Returns the head: its top-line trace gamma_trace_w2 is the
        right side h_t, and it carries the weighted dissipation.  The
        trace's analytic mean is zero and the conservative recovery keeps
        its discrete mean at roundoff; step zeroes that mode anyway.
        """
        config, profile = self.config, self.profile
        upper, lower = config.grids()
        h = PeriodicField1D(h_values)
        pack_plus = metric_terms(harmonic_extension(h, profile.f, upper), profile,
                                 j_min=config.j_min)
        if self._pack_minus is None:
            self._pack_minus = metric_terms(harmonic_extension(
                PeriodicField1D.zeros(config.n1), profile.f, lower), profile, j_min=config.j_min)
        return solve_head(pack_plus, self._pack_minus, h, profile, guess=guess)


def _etd_weights(rates: np.ndarray, dt: float) -> tuple[np.ndarray, ...]:
    """ETDRK4's coefficients for the diagonal linear part L = rates over a
    step dt: (L, E, E2, Q, f1, f2, f3) with E = exp(dt L), E2 = exp(dt L / 2)
    and, for c = dt L, the phi-function weights (Cox & Matthews 2002)

        Q  = dt (exp(c/2) - 1) / c
        f1 = dt (-4 - c + exp(c) (4 - 3c + c^2)) / c^3
        f2 = dt (2 + c + exp(c) (c - 2)) / c^3
        f3 = dt (-4 - 3c - c^2 + exp(c) (4 - c)) / c^3

    each the mean of its closed form over a radius-1 circle about c
    (Kassam & Trefethen 2005).  On that circle the closed forms lose no
    digits to cancellation, as they do near c = 0, where the weights tend
    to dt/2, dt/6, dt/6 and dt/6 and the step is classical RK4.

    f1, 4 f2 and f3 integrate exp(L (dt - s)) times a quadratic in s on
    [0, dt] exactly from its values at 0, dt/2 and dt; in reverse order,
    (f3, 4 f2, f1) integrate exp(L s) times a quadratic.
    """
    c = dt * rates
    lc = c[:, None] + np.exp(1j * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
    e = np.exp(lc)
    weights = [(np.exp(lc / 2) - 1) / lc,
               (-4 - lc + e * (4 - 3 * lc + lc ** 2)) / lc ** 3,
               (2 + lc + e * (lc - 2)) / lc ** 3,
               (-4 - 3 * lc - lc ** 2 + e * (4 - lc)) / lc ** 3]
    return (rates, np.exp(c), np.exp(c / 2),
            *(dt * np.mean(w, axis=1).real for w in weights))


def step(state: SimState, flow: Flow, dt: float,
         head1: HeadSolution) -> tuple[SimState, list[HeadSolution]]:
    """One ETDRK4 step of h_t = w2 on the top line (flow.head), from the
    head of the state, head1 = flow.head(state.h.values), which the caller
    has solved.

    In the rfft modes v of h, L is diag(sigma_h) and N(v) the trace's modes
    minus L v; the stages a and b sit at t + dt/2, c at t + dt (Cox &
    Matthews 2002).  Zeroes the mean and the Nyquist mode of the new v
    (_project_rest_modes) and adds the mean it drops, the traces' roundoff,
    to mean_drift, accumulates the weighted-dissipation integral, and
    re-checks the interface gap.  Returns the new state and the heads of
    stages a, b and c, in stage order; each starts its solve from the
    heads of the stages before it.

    The integral takes the dissipation D of the state and of each stage,
    d1 at 0, da and db at dt/2 and dc at dt, and shares each out over the
    modes k in proportion to the flat dissipation -sigma_h(k) |v_k|^2 of
    that state or stage.  Mode k's shares are integrated with ETDRK4's own
    weights (_etd_weights) at the rate r = 2 sigma_h(k), no faster than
    DISSIPATION_EXPONENT_FLOOR / dt, time reversed, with the mean of the a
    and b shares at dt/2.  A single mode k is so integrated exactly when
    its D is exp(r s) times a quadratic in s; at rate 0 the rule is
    Simpson's, dt/6 (d1 + 2 da + 2 db + dc).
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    config = flow.config
    rates, e, e2, q, f1, f2, f3 = _etd_weights(config.sigma_h, dt)
    n1 = config.n1

    def nonlinear(head, v):
        return np.fft.rfft(head.gamma_trace_w2) - rates * v

    def stage(v, guess):
        head = flow.head(np.fft.irfft(v, n=n1), guess)
        return nonlinear(head, v), head

    v = np.fft.rfft(state.h.values)
    n_v = nonlinear(head1, v)
    a = e2 * v + q * n_v
    n_a, head_a = stage(a, head1.p)
    b = e2 * v + q * n_a
    n_b, head_b = stage(b, head_a.p)
    # c - v, over the whole step, is about twice b - v: extrapolate the head
    # linearly
    c = e2 * a + q * (2.0 * n_b - n_v)
    n_c, head_c = stage(c, 2.0 * head_b.p - head1.p)

    update = e * v + f1 * n_v + 2.0 * f2 * (n_a + n_b) + f3 * n_c
    mean_drift = update[0].real / n1  # the mean the projection drops
    h_new = PeriodicField1D(np.fft.irfft(_project_rest_modes(update), n=n1))
    # at the dissipation rates r, (f3, 4 f2, f1) weigh D exp(-r s) at 0, dt/2
    # and dt; the weights on D itself, one column per mode, are theirs over
    # exp(r s) there
    _, e_d, e2_d, _, f1_d, f2_d, f3_d = _etd_weights(
        np.maximum(2.0 * rates, DISSIPATION_EXPONENT_FLOOR / dt), dt)
    weights = (f3_d, 4.0 * f2_d / e2_d, f1_d / e_d)

    def shares(u):
        """each mode's share of the flat dissipation of u; none for a flat
        interface, whose D is zero"""
        flat = -rates * np.abs(u) ** 2
        total = flat.sum()
        return flat / total if total > 0 else flat

    diss_inc = float(
        weights[0] @ shares(v) * head1.dissipation
        + weights[1] @ (0.5 * (shares(a) * head_a.dissipation
                               + shares(b) * head_b.dissipation))
        + weights[2] @ shares(c) * head_c.dissipation)

    margin = _gap_margin(h_new.values, flow.profile.f.values)
    if margin <= config.gap_tol:
        raise GapViolation(
            f"interface within {margin:.4g} of the permeability curve at "
            f"t = {state.t + dt:.6g} (gap_tol = {config.gap_tol})"
        )
    new_state = SimState(
        h=h_new,
        t=state.t + dt,
        step_count=state.step_count + 1,
        diss_l2_integral=state.diss_l2_integral + diss_inc,
        mean_drift=state.mean_drift + mean_drift,
    )
    return new_state, [head_a, head_b, head_c]


def check_data(config: SimConfig, h0: PeriodicField1D, f: PeriodicField1D) -> None:
    """The checks run makes before it starts: ValueError for data it rejects."""
    if h0.n != config.n1 or f.n != config.n1:
        raise ValueError("initial data resolution must match config.n1")
    if float(np.min(f.values)) <= -1.0 + config.gap_tol:
        raise ValueError("permeability curve within gap_tol of the floor")


def run(config: SimConfig, h0: PeriodicField1D, f: PeriodicField1D) -> Trajectory:
    """Advance from h0 to t_end, reporting every report_every steps.

    Data that check_data rejects raise ValueError; physical and solver
    failures terminate the run with the reason and time on the trajectory.
    """
    check_data(config, h0, f)
    flow = Flow(config, f)

    h0 = PeriodicField1D(np.fft.irfft(_project_rest_modes(np.fft.rfft(h0.values)), n=h0.n))
    traj = Trajectory()
    state = SimState(h=h0)
    h0_l2_sq = sobolev_norm(h0, 0.0) ** 2
    guess = None  # the last stage head of the step before
    try:
        if _gap_margin(h0.values, f.values) <= config.gap_tol:
            raise GapViolation("initial interface within gap_tol of the permeability curve")
        # each pass visits one evaluated state: ledger, report, then stop at
        # t_end or step
        while True:
            head = flow.head(state.h.values, guess)
            traj.head_solves += 1
            traj.cg_iterations += head.cg_iterations
            traj.max_abs_mean_h = max(traj.max_abs_mean_h, abs(state.mean_drift))
            traj.max_abs_top_flux = max(traj.max_abs_top_flux, abs(head.top_flux_total))
            at_end = state.t >= config.t_end - 1e-12
            if state.step_count % config.report_every == 0 or at_end:
                if not traj.states:
                    traj.initial_head = head
                traj.final_head = head
                traj.states.append(state)
                traj.reports.append(diagnostics.report(state, head, h0_l2_sq))
            if at_end:
                break
            state, solved = step(state, flow, min(config.dt, config.t_end - state.t), head)
            traj.head_solves += len(solved)
            traj.cg_iterations += sum(stage.cg_iterations for stage in solved)
            guess = solved[-1].p
    except tuple(_TERMINATIONS) as exc:
        traj.termination = next(reason for kind, reason in _TERMINATIONS.items()
                                if isinstance(exc, kind))
        traj.error = str(exc)
        traj.error_time = state.t  # a step that fails leaves state as it was

    return traj
