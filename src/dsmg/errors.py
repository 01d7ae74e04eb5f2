"""Exception hierarchy shared by all dsmg modules."""


class DsmgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DsmgError):
    """Vector or matrix shapes are incompatible with the operation."""


class DomainError(DsmgError):
    """An argument lies outside the mathematical domain of the operation."""


class FactorizationFailure(DsmgError):
    """The underlying SVD/eigen iteration did not converge."""


class DegenerateResidual(DsmgError):
    """The residual norm is exactly zero, so its derivative is undefined."""


class UnattainableDiscrepancy(DsmgError):
    """The residual cannot decay to C*delta.

    Raised when the non-decaying part of the residual (components in
    directions where the operator spectrum vanishes) already exceeds the
    target, which signals that C is too small or the noise bound delta
    was understated.
    """


class PreconditionViolated(DsmgError):
    """A documented precondition of the solver was not met by the inputs."""


class IterationBudgetExceeded(DsmgError):
    """An iteration did not converge within its fixed budget."""


class UnstableStep(DsmgError):
    """Explicit Euler step size is at or beyond the stability limit."""


class ComplexResidue(DsmgError):
    """A nominally real signal came back with a large imaginary part."""


class MalformedFile(DsmgError):
    """A file could not be parsed; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
