"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A run configuration, sweep spec or settings object is invalid."""


class InfeasibleConstraintError(ValueError):
    """An initial-condition constraint cannot be satisfied.

    Carries the name of the failing constraint and the offending radicand.
    """

    def __init__(self, constraint, radicand):
        self.constraint = constraint
        self.radicand = radicand
        super().__init__(
            f"constraint '{constraint}' infeasible (radicand {radicand:.6g})"
        )


class NumericalFailureError(RuntimeError):
    """Integration failed (non-finite state, vanishing step, spent step budget or refinement stall)."""

    def __init__(self, message, last_good_time=None):
        self.last_good_time = last_good_time
        if last_good_time is not None:
            message = f"{message} (last good time t={last_good_time:.6g})"
        super().__init__(message)


class DivergentTrajectoryError(RuntimeError):
    """A trajectory diverged before the requested analysis could complete."""

    def __init__(self, message, t_div):
        self.t_div = t_div
        super().__init__(f"{message} (diverged at t={t_div:.6g})")
