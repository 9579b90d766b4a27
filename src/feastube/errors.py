"""Exception types shared across the toolkit."""


class FeastubeError(Exception):
    """Base class for all toolkit errors."""


# --- problem registry / data ------------------------------------------------

class UnknownProblem(FeastubeError, KeyError):
    pass


class UnknownOverrideKey(FeastubeError, KeyError):
    pass


class InvalidOverrideValue(FeastubeError, ValueError):
    pass


class UnsupportedModulusForm(FeastubeError, TypeError):
    pass


class EmptyControlSet(FeastubeError, ValueError):
    pass


# --- geometry ----------------------------------------------------------------

class NonFiniteConstraint(FeastubeError, ValueError):
    """A constraint value that is NaN or infinite; ``t`` and ``x`` name the point."""

    def __init__(self, message: str, t=None, x=None) -> None:
        super().__init__(message)
        self.t, self.x = t, x


class ProjectionFailed(FeastubeError, RuntimeError):
    pass


class InfeasibleInput(FeastubeError, ValueError):
    pass


# --- margin verification -----------------------------------------------------

class LpFailure(FeastubeError, RuntimeError):
    """Internal LP failure (unbounded, cycling, or a duality gap above
    tolerance); must not occur."""


class BoundarySamplingFailed(FeastubeError, RuntimeError):
    pass


class NoFeasibleConstants(FeastubeError, ValueError):
    pass


# --- trajectories ------------------------------------------------------------

class NonFiniteState(FeastubeError, FloatingPointError):
    pass


class ViabilityLost(FeastubeError, RuntimeError):
    pass


class ConstantsInfeasible(FeastubeError, ValueError):
    pass


class CorrectionFailed(FeastubeError, RuntimeError):
    pass


class InfeasibleStart(FeastubeError, ValueError):
    pass


# --- value fields ------------------------------------------------------------

class DiscountTooSmall(FeastubeError, ValueError):
    pass


class GridTooCoarse(FeastubeError, RuntimeError):
    pass


class NonFiniteCost(FeastubeError, ValueError):
    pass


class OutOfGrid(FeastubeError, ValueError):
    """A query beyond a field's grid or times; ``row`` is the first such row
    of the query."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class GridMismatch(FeastubeError, ValueError):
    pass


# --- analysis ----------------------------------------------------------------

class DiscountBelowThreshold(FeastubeError, ValueError):
    pass


class TrajectoryOutOfGrid(FeastubeError, ValueError):
    pass


class ProbeInfeasible(FeastubeError, ValueError):
    pass
