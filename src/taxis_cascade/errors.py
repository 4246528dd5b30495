"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Shapes, names or file layouts do not line up."""


class DomainError(ValueError):
    """A value is outside the mathematical domain of an operation."""


class PositivityError(RuntimeError):
    """A state entry dropped below the clamp window (``grid.DUST_FLOOR``);
    the message names the component, the cell and the value."""


class BlowUpError(RuntimeError):
    """Watchdog: a field left the trusted range (NaN/Inf or > 1e8)."""


class StudyAbortError(RuntimeError):
    """A run aborted: a `run` of its own, or one inside a study (an mms
    level, a sweep member)."""


class FixedStepWarning(RuntimeWarning):
    """A run's fixed step is far above the step the solver would suggest:
    advice, not an error; ``cli.main`` prints it as one ``warning:`` line."""
