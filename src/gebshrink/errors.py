"""Exception types shared across the package.

Plain ``ValueError`` covers malformed arguments (bad shapes, out-of-range
scalars).  The classes below mark the failure modes callers may want to
distinguish: a tuning configuration that cannot be satisfied, a numeric
routine that failed to converge, and a worker process that died during a
parallel run.
"""


class InvalidConfigError(ValueError):
    """A tuning configuration is unusable for the requested fit."""


class NumericFailure(RuntimeError):
    """A numeric routine could not reach its accuracy target."""


class WorkerDied(RuntimeError):
    """A worker process of a parallel Monte Carlo run exited mid-run."""


class QuadratureError(NumericFailure):
    """Adaptive quadrature ran out of panel budget before converging."""

    def __init__(self, message, *, interval=None, panels=None, worst_error=None):
        detail = message
        if interval is not None:
            detail += f" interval={interval!r}"
        if panels is not None:
            detail += f" panels={panels}"
        if worst_error is not None:
            detail += f" worst_error={worst_error:.3e}"
        super().__init__(detail)
        self.interval = interval
        self.panels = panels
        self.worst_error = worst_error
