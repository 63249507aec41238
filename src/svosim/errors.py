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


class FitDivergenceError(RuntimeError):
    """Weight fitting left the trust region instead of converging."""

    def __init__(self, message: str, *, iteration: int, weights, mismatch):
        super().__init__(message)
        self.iteration = iteration
        self.weights = weights
        self.mismatch = mismatch

    def __reduce__(self):
        # the default reduce rebuilds with cls(*args), which lacks the
        # keyword-only fields: unpickling, e.g. in the parent of a worker
        # process, would raise TypeError
        return (partial(type(self), iteration=self.iteration,
                        weights=self.weights, mismatch=self.mismatch),
                self.args, self.__dict__)


class TraceParseError(ValueError):
    """A trace, profile, or config file failed to parse.

    ``line`` is the 1-based line number when one is known.
    """

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message)
        self.line = line
