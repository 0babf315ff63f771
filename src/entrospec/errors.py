"""Exception hierarchy shared by all modules."""


class EntrospecError(Exception):
    """Base class for all library errors."""


class ModelConfigError(EntrospecError):
    """A model description (flags, JSON, parameters) is invalid."""


class NumericalError(EntrospecError):
    """Base class for numerical failures (exit code 2 in the CLI)."""


class QuadratureNotConverged(NumericalError):
    """Step halving stalled above tol, or met a non-finite value (change inf)."""

    def __init__(self, what, last_change, tol, points):
        self.what = what
        self.last_change = last_change
        self.tol = tol
        self.points = points
        super().__init__(
            f"{what}: quadrature change {last_change:.3e} > tol {tol:.1e} after {points} points"
        )


class NotPositiveDefinite(NumericalError):
    """Levinson recursion hit a non-positive innovation variance."""

    def __init__(self, order, value):
        self.order = order
        self.value = value
        super().__init__(f"innovation variance {value:.3e} at order {order}")


class DimensionMismatch(EntrospecError):
    """Vector length incompatible with the factorization order."""


class ZeroSymbol(ModelConfigError):
    """Filter symbol identically zero."""


class RateNotFinite(EntrospecError):
    """Operation requires a finite entropy rate but Se = -inf."""


class DegenerateProcess(EntrospecError):
    """Szego integral is -inf: the process is deterministic from its past."""


class NonMonotone(EntrospecError):
    """Coordinatewise transform has nonpositive derivative on the sample."""
