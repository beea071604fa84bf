"""Exception hierarchy shared by all subrad modules."""


class SubradError(Exception):
    """Base class for all errors raised by subrad."""


class NotHermitian(SubradError):
    """A matrix required to be Hermitian failed the tolerance check."""


class DimensionMismatch(SubradError):
    """Operator/state dimensions are inconsistent with the layout."""


class DimensionCapExceeded(SubradError):
    """A Hilbert dimension above ``dimension_cap``, or a superoperator above its own bound."""


class InvalidTransition(SubradError):
    """A channel or drive references levels outside an emitter's ladder."""


class UnknownLabel(SubradError):
    """A named state or observable could not be resolved."""


class NonNormalizable(SubradError):
    """A state specification produced a (near-)zero vector or weight."""


class StepSizeUnderflow(SubradError):
    """The adaptive integrator could not meet its error target."""


class InvariantViolation(SubradError):
    """A physical invariant (trace, Hermiticity, positivity) was breached."""


class InvariantBreach(SubradError):
    """Raised in strict mode when a run violates trace/Hermiticity/positivity."""


class ConvergenceFailure(SubradError):
    """An iterative eigensolve failed to converge."""


class ParseError(SubradError):
    """Scenario/sweep text could not be parsed."""


class ValidationError(SubradError, ValueError):
    """A scenario/sweep field, or a spec or argument value, violates its constraints; also a `ValueError`."""
