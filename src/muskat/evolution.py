"""Interface evolution: h_t equals the top trace of the pulled-back vertical
velocity.  Classical RK4 in time.  The linearized operator is first-order
dissipative: its rates are the top-line Dirichlet-to-Neumann symbol sigma_h
of the flat-metric head balance, real and nonpositive, so the step is a
fraction dt_safety of RK4's stability limit on the negative real axis over
max |sigma_h|.  sigma_h is zero at the mean and at the Nyquist mode, which
the run removes from h at t = 0 and after every step.

Each head solve is for an interface that differs by O(dt) from one solved
just before, so every solve of a run but the first starts CG from the
nearest head at hand (H_i is the head of stage i, stage 1 the state):
stage 2 from H1, stage 3 from H2, stage 4 from 2 H3 - H1, since
y4 - y1 = dt k3 is about twice y3 - y1, and the next state from H4.  The
start saves iterations only; the solver's stopping test does not change.

The lower strip's map has the traces 0 and f, never h, so its metric is the
same for every interface: run builds it once (lower_pack) and every
evaluation of the run reads it.
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
    MetricPack,
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
from .pressure import HeadSolution, flat_top_rates, solve_head
from .spectral_core import PeriodicField1D, mean, project_zero_mean, sobolev_norm

__all__ = ["SimConfig", "SimState", "Trajectory", "check_data", "lower_pack", "step",
           "run"]

# classical RK4 is stable for dt * lambda in [-RK4_REAL_LIMIT, 0], lambda real
RK4_REAL_LIMIT = 2.78529356340529

# largest beta_minus / beta_plus a run accepts.  The lower strip's balance
# rows are that ratio times the upper ones, while the head solve's residual
# gate is relative to the right side, which sits in the upper rows, so the
# gate's roundoff floor grows like eps * beta_minus / beta_plus: both solvers
# failed it from 2e6 on 64 x (32+32) and 192 x (96+96).  This is one decade
# under that.  A more permeable upper strip has no such floor.
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
    """Resolutions, physics constants, and run controls."""

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

    def validate(self) -> "SimConfig":
        for name in ("n1", "n2_plus", "n2_minus", "report_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("beta_plus", "beta_minus", "dt_safety", "t_end", "gap_tol", "j_min"):
            value = getattr(self, name)
            if not _is_finite_number(value):
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
        return self

    @property
    def dt(self) -> float:
        """Explicit step: dt_safety times RK4_REAL_LIMIT / max_k |sigma_h(k)|.

        sigma_h is the discrete top-line rate of the flat-metric balance
        (pressure.flat_top_rates), so dt_safety = 1 is the flat operator's
        exact RK4 limit.  A curved metric shifts the rates, and values near 1
        leave no margin for it; 0.5 was stable down to min J = 0.2.  It
        reads the cached flat inverse that the Krylov head solve uses.
        """
        sigma_h = flat_top_rates(self.n1, self.n2_plus, self.n2_minus,
                                 self.beta_plus, self.beta_minus)
        return self.dt_safety * RK4_REAL_LIMIT / float(np.max(np.abs(sigma_h)))

    def grids(self) -> tuple[StripGrid, StripGrid]:
        return (StripGrid(UPPER, self.n1, self.n2_plus),
                StripGrid(LOWER, self.n1, self.n2_minus))


def _is_finite_number(value) -> bool:
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


@dataclass
class Trajectory:
    """Reported states and their reports, plus termination metadata and
    per-step ledgers.

    states[i] is the state that reports[i] describes.  initial_head and
    final_head are the head solutions of the first and the last reported
    state, kept so that snapshots need no second solve.  head_solves and
    cg_iterations total the head solves of the evaluated states and of the
    steps that completed, and their CG iterations.
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


def _strip_pack(h: PeriodicField1D, profile: PermeabilityProfile, config: SimConfig,
                grid: StripGrid) -> MetricPack:
    return metric_terms(harmonic_extension(h, profile.f, grid), profile, j_min=config.j_min)


def lower_pack(profile: PermeabilityProfile, config: SimConfig) -> MetricPack:
    """The lower strip's metric, the same for every interface (its map's
    traces are 0 and f); DiffeoDegenerate if that map is degenerate."""
    return _strip_pack(PeriodicField1D.zeros(config.n1), profile, config, config.grids()[1])


def _project_rest_modes(h: PeriodicField1D) -> PeriodicField1D:
    """h without the two modes whose flat rate sigma_h is zero: the mean,
    which the dynamics conserve, and the Nyquist mode k = n1/2, which the
    antisymmetric x1-difference does not see, so that it would never
    decay.  At the nodes that mode is a multiple of (-1)^j."""
    h = project_zero_mean(h)
    nyquist = (-1.0) ** np.arange(h.n)
    return PeriodicField1D(h.values - nyquist * np.mean(nyquist * h.values))


def _evaluate(h_values: np.ndarray, profile: PermeabilityProfile,
              config: SimConfig, pack_minus: MetricPack, guess=None):
    """One full right-side evaluation: upper strip map, metric, head solve.

    pack_minus is lower_pack(profile, config).  guess is solve_head's start,
    the head p of a nearby solution or None.  Returns (trace values, head);
    the head carries the weighted dissipation.  The returned trace is
    mean-projected; its analytic mean is zero and the conservative recovery
    keeps the discrete mean at roundoff.
    """
    h = PeriodicField1D(h_values)
    pack_plus = _strip_pack(h, profile, config, config.grids()[0])
    head = solve_head(pack_plus, pack_minus, h, profile, solver="krylov", guess=guess)
    trace = head.gamma_trace_w2.values
    return trace - np.mean(trace), head


def step(state: SimState, profile: PermeabilityProfile, config: SimConfig,
         dt: float, pack_minus: MetricPack,
         evaluation: tuple[np.ndarray, HeadSolution]) -> tuple[SimState, list[HeadSolution]]:
    """One classical RK4 step of h_t = w2 on the top line (_evaluate), with
    the lower strip's metric pack_minus = lower_pack(profile, config) and
    the state's own evaluation (k1, head1), which the caller has made.

    Removes the mean and the Nyquist mode (_project_rest_modes), accumulates
    the weighted-dissipation integral with the RK4-consistent quadrature,
    and re-checks the interface gap.  Returns the new state and the heads of
    stages 2-4, in stage order; each starts its solve from the heads of the
    stages before it.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    f_values = profile.f.values
    y = state.h.values

    k1, head1 = evaluation
    k2, head2 = _evaluate(y + 0.5 * dt * k1, profile, config, pack_minus, head1.p)
    k3, head3 = _evaluate(y + 0.5 * dt * k2, profile, config, pack_minus, head2.p)
    # y4 - y = dt k3 is about twice y3 - y: extrapolate the head linearly
    k4, head4 = _evaluate(y + dt * k3, profile, config, pack_minus,
                          2.0 * head3.p - head1.p)

    h_new = _project_rest_modes(
        PeriodicField1D(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)))
    d1, d2, d3, d4 = (head.dissipation for head in (head1, head2, head3, head4))
    diss_inc = (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)

    margin = _gap_margin(h_new.values, f_values)
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
    )
    return new_state, [head2, head3, head4]


def check_data(config: SimConfig, h0: PeriodicField1D, f: PeriodicField1D) -> None:
    """The checks run makes before it starts: ValueError for data it rejects."""
    config.validate()
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
    profile = PermeabilityProfile(f, config.beta_plus, config.beta_minus)

    h0 = _project_rest_modes(h0)
    traj = Trajectory()
    state = SimState(h=h0)

    if _gap_margin(h0.values, f.values) <= config.gap_tol:
        traj.termination = TERMINATION_GAP
        traj.error = "initial interface within gap_tol of the permeability curve"
        traj.error_time = 0.0
        return traj

    h0_l2_sq = sobolev_norm(h0, 0.0) ** 2

    dt = config.dt
    guess = None  # the last stage head of the step before
    try:
        try:
            pack_minus = lower_pack(profile, config)
        except DiffeoDegenerate:
            # an evaluation maps the upper strip first: if both maps are
            # degenerate, the upper one is reported
            _strip_pack(state.h, profile, config, config.grids()[0])
            raise
        # each pass visits one evaluated state: ledger, report, then stop at
        # t_end or step
        while True:
            current_eval = _evaluate(state.h.values, profile, config, pack_minus, guess)
            head = current_eval[1]
            traj.head_solves += 1
            traj.cg_iterations += head.cg_iterations
            traj.max_abs_mean_h = max(traj.max_abs_mean_h, abs(mean(state.h)))
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
            state, solved = step(state, profile, config, min(dt, config.t_end - state.t),
                                 pack_minus, current_eval)
            traj.head_solves += len(solved)
            traj.cg_iterations += sum(stage.cg_iterations for stage in solved)
            guess = solved[-1].p
    except tuple(_TERMINATIONS) as exc:
        traj.termination = next(reason for kind, reason in _TERMINATIONS.items()
                                if isinstance(exc, kind))
        traj.error = str(exc)
        traj.error_time = state.t  # a step that fails leaves state as it was

    return traj
