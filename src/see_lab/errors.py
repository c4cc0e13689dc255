"""Exception types shared across the package."""


class SeeLabError(Exception):
    """Base class for all see_lab errors."""


class ValidationError(SeeLabError):
    """Raised when an input violates a documented precondition."""


class DimensionMismatch(ValidationError):
    """Raised when a vector does not live in the expected basis."""


class ConfigError(SeeLabError):
    """Raised by the config parser; collects every violation with line numbers."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


class DivergedError(SeeLabError):
    """Raised when a time step produces nonfinite state coefficients.

    h_norm is |X̃|_H of the offending row before the ball constraint (inf or
    nan when the pre-step state overflowed); model_id names the model.
    """

    def __init__(self, path_index, step, t, h_norm, model_id):
        self.path_index = path_index
        self.step = step
        self.t = t
        self.h_norm = h_norm
        self.model_id = model_id
        super().__init__(
            f"nonfinite state at path_index={path_index}, step={step}, t={t:.6g}, "
            f"|X~|_H={h_norm:.6g}, model_id={model_id}"
        )
