"""Exception hierarchy of all dsmg modules, and the file and integer reads of both parsers."""


class DsmgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DsmgError):
    """Vector or matrix shapes are incompatible with the operation."""


class DomainError(DsmgError):
    """An argument lies outside the mathematical domain of the operation."""


class FactorizationFailure(DsmgError):
    """The underlying SVD/eigen iteration did not converge."""


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


class MalformedFile(DsmgError):
    """A file could not be parsed; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _read_bytes(path) -> bytes:
    """The whole file; one that cannot be read is a MalformedFile at offset 0."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc.strerror}", 0) from exc


def _ascii_int(token) -> int:
    """A str or bytes token of ASCII digits as an int, or ValueError.

    int() would also take a sign, digit-group underscores and non-ASCII digits,
    and past its digit limit its own error would quote every digit."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"invalid integer {token!r}")
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{len(token)} digits") from None
