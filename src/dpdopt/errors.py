"""Exception types shared across the package."""

__all__ = ["TopologyError", "ProblemError", "ScheduleError", "BudgetError", "ConfigError",
           "DivergenceError"]


class TopologyError(ValueError):
    """Raised for malformed or unusable graphs (too small, disconnected)."""


class ProblemError(ValueError):
    """Raised for degenerate cost instances (non strongly convex, singular)."""


class ScheduleError(ValueError):
    """Raised for stepsize/noise schedules outside their validity domain."""


class BudgetError(ValueError):
    """Raised when a privacy spend is undefined (positive leak, zero noise)."""


class ConfigError(ValueError):
    """Raised by the config loader; carries every violation found, not just
    the first one."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))


class DivergenceError(ArithmeticError):
    """Raised when a simulated state, or a number reported of the run, leaves
    the finite floats. Not a ValueError: the input was valid and the dynamic
    itself diverged.

    iteration and trial, when `engine._divergence` sets them, place the
    first non-finite value: its iteration and the trial's index in the ensemble.
    series, when set, names the reported series that is not finite there
    while every state stays finite."""

    def __init__(self, message, iteration=None, trial=None, series=None):
        super().__init__(message)
        self.iteration = iteration
        self.trial = trial
        self.series = series
