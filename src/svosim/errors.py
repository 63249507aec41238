"""Exception types shared across the package."""

from functools import partial


class InvalidParameterError(ValueError):
    """A parameter is outside its documented domain."""


class CollisionError(RuntimeError):
    """A following gap closed to zero or below; the episode is invalid.

    Carries enough context to locate the event in the run.
    """

    def __init__(self, message: str, *, step: int | None = None,
                 vehicle: str | None = None):
        super().__init__(message)
        self.step = step
        self.vehicle = vehicle


class SimulationError(RuntimeError):
    """An episode produced an invalid state and cannot continue."""

    def __init__(self, message: str, *, step: int | None = None):
        super().__init__(message)
        self.step = step


class _RequiredFields:
    """Pickling for an exception whose keyword-only fields are required."""

    def __reduce__(self):
        # the default reduce rebuilds with cls(*args), which lacks the
        # keyword-only fields: unpickling, e.g. in the parent of a worker
        # process, would raise TypeError
        return partial(type(self), **self.__dict__), self.args


class FitDivergenceError(_RequiredFields, RuntimeError):
    """Weight fitting left the trust region instead of converging."""

    def __init__(self, message: str, *, iteration: int, weights, mismatch):
        super().__init__(message)
        self.iteration = iteration
        self.weights = weights
        self.mismatch = mismatch


class QpInfeasibleError(_RequiredFields, RuntimeError):
    """A quadratic program's constraint rows admit no feasible point.

    ``u`` is the solver's last iterate, the minimiser over the rows it
    had made active; ``iterations`` the active-set steps taken.
    """

    def __init__(self, message: str, *, u, iterations: int):
        super().__init__(message)
        self.u = u
        self.iterations = iterations


class TraceParseError(ValueError):
    """A trace, profile, or config file failed to parse.

    ``line`` is the 1-based line number when one is known.
    """

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message)
        self.line = line
