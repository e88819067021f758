"""Interface evolution: h_t equals the top trace of the pulled-back vertical
velocity.  Classical RK4 in time with an explicit step limit proportional to
the horizontal spacing (the linearized operator is first-order dissipative).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics
from .diffeo import (
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
from .pressure import HeadSolution, solve_head
from .spectral_core import PeriodicField1D, mean, project_zero_mean

__all__ = ["SimConfig", "SimState", "Trajectory", "TrajectorySample",
           "rhs", "step", "run"]

TERMINATION_COMPLETED = "completed"
TERMINATION_GAP = "gap_violation"
TERMINATION_DEGENERATE = "diffeo_degenerate"
TERMINATION_SOLVER = "solver_failure"


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
    j_min: float = 0.1
    solver: str = "krylov"
    report_every: int = 1
    output_dir: str | None = None

    def validate(self) -> "SimConfig":
        if self.n1 < 4 or self.n1 % 2 != 0:
            raise ValueError("n1 must be even and >= 4")
        if self.n2_plus < 3 or self.n2_minus < 3:
            raise ValueError("n2_plus and n2_minus must be >= 3")
        if not (self.beta_plus > 0 and self.beta_minus > 0):
            raise ValueError("permeabilities must be positive")
        if not (0.0 < self.dt_safety <= 1.0):
            raise ValueError("dt_safety must lie in (0, 1]")
        if not (self.t_end > 0):
            raise ValueError("t_end must be positive")
        if not (self.gap_tol > 0):
            raise ValueError("gap_tol must be positive")
        if not (0.0 < self.j_min < 1.0):
            raise ValueError("j_min must lie in (0, 1)")
        if self.solver not in ("krylov", "direct"):
            raise ValueError("solver must be 'krylov' or 'direct'")
        if self.report_every < 1:
            raise ValueError("report_every must be >= 1")
        return self

    @property
    def dt(self) -> float:
        """Explicit step: safety factor times dx1 over the larger conductivity."""
        dx1 = 2.0 * np.pi / self.n1
        return self.dt_safety * dx1 / max(self.beta_plus, self.beta_minus)

    def grids(self) -> tuple[StripGrid, StripGrid]:
        return (StripGrid(UPPER, self.n1, self.n2_plus),
                StripGrid(LOWER, self.n1, self.n2_minus))


@dataclass
class SimState:
    """Evolving interface plus running step/ledger bookkeeping."""

    h: PeriodicField1D
    t: float = 0.0
    step_count: int = 0
    diss_l2_integral: float = 0.0


@dataclass
class TrajectorySample:
    t: float
    state: SimState
    report: diagnostics.EnergyReport


@dataclass
class Trajectory:
    """Reported samples plus termination metadata and per-step ledgers.

    initial_head and final_head are the head solutions of the first and the
    last sample, kept so that snapshots need no second solve.
    """

    config: SimConfig
    samples: list[TrajectorySample] = field(default_factory=list)
    initial_head: HeadSolution | None = None
    final_head: HeadSolution | None = None
    termination: str = TERMINATION_COMPLETED
    error: str | None = None
    error_time: float | None = None
    max_abs_mean_h: float = 0.0
    max_abs_top_flux: float = 0.0

    @property
    def reports(self) -> list[diagnostics.EnergyReport]:
        return [s.report for s in self.samples]


def _gap_margin(h_values: np.ndarray, f_values: np.ndarray) -> float:
    return float(np.min(h_values + 1.0 - f_values))


def _evaluate(h_values: np.ndarray, profile: PermeabilityProfile,
              config: SimConfig):
    """One full right-side evaluation: strip maps, metric, head solve.

    Returns (trace values, head, (upper pack, lower pack), weighted
    dissipation).  The returned trace is mean-projected; its analytic mean is
    zero and the conservative recovery keeps the discrete mean at roundoff.
    """
    h = PeriodicField1D(h_values)
    grid_plus, grid_minus = config.grids()
    shift_plus = harmonic_extension(h, profile.f, grid_plus)
    shift_minus = harmonic_extension(h, profile.f, grid_minus)
    pack_plus = metric_terms(shift_plus, profile, j_min=config.j_min)
    pack_minus = metric_terms(shift_minus, profile, j_min=config.j_min)
    head = solve_head(pack_plus, pack_minus, h, profile, solver=config.solver)
    trace = head.gamma_trace_w2.values
    trace = trace - np.mean(trace)
    diss = diagnostics.dissipation_l2(head, pack_plus, pack_minus)
    return trace, head, (pack_plus, pack_minus), diss


def rhs(h: PeriodicField1D, profile: PermeabilityProfile,
        config: SimConfig) -> PeriodicField1D:
    """Interface velocity w2 on the top line, mean-projected."""
    trace, _, _, _ = _evaluate(h.values, profile, config)
    return PeriodicField1D(trace)


def step(state: SimState, profile: PermeabilityProfile, config: SimConfig,
         dt: float, _first_eval=None) -> SimState:
    """One classical RK4 step of h_t = rhs(h).

    Re-projects the mean, accumulates the weighted-dissipation integral with
    the RK4-consistent quadrature, and re-checks the interface gap.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    f_values = profile.f.values
    y = state.h.values

    if _first_eval is None:
        _first_eval = _evaluate(y, profile, config)
    k1, _, _, d1 = _first_eval
    k2, _, _, d2 = _evaluate(y + 0.5 * dt * k1, profile, config)
    k3, _, _, d3 = _evaluate(y + 0.5 * dt * k2, profile, config)
    k4, _, _, d4 = _evaluate(y + dt * k3, profile, config)

    y_new = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y_new = y_new - np.mean(y_new)
    diss_inc = (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)

    margin = _gap_margin(y_new, f_values)
    if margin <= config.gap_tol:
        raise GapViolation(
            f"interface within {margin:.4g} of the permeability curve at "
            f"t = {state.t + dt:.6g} (gap_tol = {config.gap_tol})"
        )
    return SimState(
        h=PeriodicField1D(y_new),
        t=state.t + dt,
        step_count=state.step_count + 1,
        diss_l2_integral=state.diss_l2_integral + diss_inc,
    )


def run(config: SimConfig, h0: PeriodicField1D, f: PeriodicField1D) -> Trajectory:
    """Advance from h0 to t_end, reporting every report_every steps.

    Physical and solver failures do not raise; they terminate the run with
    the reason and offending time recorded on the trajectory.
    """
    config.validate()
    if h0.n != config.n1 or f.n != config.n1:
        raise ValueError("initial data resolution must match config.n1")
    if float(np.min(f.values)) <= -1.0 + config.gap_tol:
        raise ValueError("permeability curve within gap_tol of the floor")
    profile = PermeabilityProfile(f, config.beta_plus, config.beta_minus)

    h0 = project_zero_mean(h0)
    traj = Trajectory(config=config)
    state = SimState(h=h0)

    if _gap_margin(h0.values, f.values) <= config.gap_tol:
        traj.termination = TERMINATION_GAP
        traj.error = "initial interface within gap_tol of the permeability curve"
        traj.error_time = 0.0
        return traj

    history = diagnostics.History()
    dt = config.dt

    def sample(current_eval):
        _, head, metric, _ = current_eval
        rep = diagnostics.report(state, head, metric, history)
        if not traj.samples:
            traj.initial_head = head
        traj.final_head = head
        traj.samples.append(TrajectorySample(state.t, state, rep))

    try:
        current_eval = _evaluate(state.h.values, profile, config)
    except (DiffeoDegenerate, NonSPDSystem, SolverDivergence) as exc:
        traj.termination = (TERMINATION_DEGENERATE
                            if isinstance(exc, DiffeoDegenerate)
                            else TERMINATION_SOLVER)
        traj.error = str(exc)
        traj.error_time = 0.0
        return traj

    sample(current_eval)
    traj.max_abs_mean_h = abs(mean(state.h))
    traj.max_abs_top_flux = abs(current_eval[1].top_flux_total)

    while state.t < config.t_end - 1e-12:
        dt_step = min(dt, config.t_end - state.t)
        try:
            state = step(state, profile, config, dt_step, _first_eval=current_eval)
            current_eval = _evaluate(state.h.values, profile, config)
        except GapViolation as exc:
            traj.termination = TERMINATION_GAP
            traj.error = str(exc)
            traj.error_time = state.t
            return traj
        except DiffeoDegenerate as exc:
            traj.termination = TERMINATION_DEGENERATE
            traj.error = str(exc)
            traj.error_time = state.t
            return traj
        except (NonSPDSystem, SolverDivergence) as exc:
            traj.termination = TERMINATION_SOLVER
            traj.error = str(exc)
            traj.error_time = state.t
            return traj

        traj.max_abs_mean_h = max(traj.max_abs_mean_h, abs(mean(state.h)))
        traj.max_abs_top_flux = max(traj.max_abs_top_flux,
                                    abs(current_eval[1].top_flux_total))
        at_end = state.t >= config.t_end - 1e-12
        if state.step_count % config.report_every == 0 or at_end:
            sample(current_eval)

    return traj
