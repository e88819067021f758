"""Exception types shared across the solver modules."""


class MuskatError(Exception):
    """Base class for all simulator errors."""


class ResolutionMismatch(MuskatError):
    """Fields passed to an operation do not share a grid resolution."""


class DiffeoDegenerate(MuskatError):
    """The strip map lost injectivity: min J fell at or below j_min.

    Signals the interface approaching the permeability curve or fold-over;
    the simulation must stop rather than continue past validity.
    """


class GapViolation(MuskatError):
    """The interface came within gap_tol of the permeability curve."""


class NonSPDSystem(MuskatError):
    """The head system is not positive definite (degenerate metric).

    Raised for k11 <= 0, by the conjugate-gradient curvature test (a search
    direction with p.Lp <= 0) and by the direct path's check for a
    nonpositive diagonal of the probed matrix.
    """


class SolverDivergence(MuskatError):
    """The head solve failed to reach the required relative residual: the
    residual gate of any solver, or a CG or Picard solve that stalled or
    diverged (Picard diverges outside its small-shift regime)."""


class InsufficientData(MuskatError):
    """Not enough usable samples for a fit."""
