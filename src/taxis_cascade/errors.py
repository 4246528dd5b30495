"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Shapes, names or file layouts do not line up."""


class DomainError(ValueError):
    """A value is outside the mathematical domain of an operation."""


class PositivityError(RuntimeError):
    """A state entry dropped below the clamp window (-1e-12)."""

    def __init__(self, component, index, value):
        self.component = component
        self.index = index
        self.value = value
        super().__init__(
            f"positivity violation in {component} at cell {index}: {value:.6e}"
        )


class LinearSolveError(RuntimeError):
    """The iterative linear solve did not reach its tolerance."""


class BlowUpError(RuntimeError):
    """Watchdog: a field left the trusted range (NaN/Inf or > 1e8)."""


class StudyAbortError(RuntimeError):
    """A run aborted: a `run` of its own, or one inside a study (an mms
    level, a sweep member)."""
