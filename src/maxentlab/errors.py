"""Exception types shared across the package."""


class MaxentLabError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(MaxentLabError):
    """Array dimensions are inconsistent with the declared sizes."""


class WeightError(MaxentLabError):
    """Mixture weights are not a valid probability vector."""


class CovarianceError(MaxentLabError):
    """A covariance matrix is asymmetric or not positive semidefinite."""


class NotCenteredError(MaxentLabError):
    """Operation requires a zero-mean mixture."""


class NonFiniteError(MaxentLabError):
    """An input or result contains NaN or infinity."""


class DomainError(MaxentLabError):
    """A scalar argument lies outside the mathematically valid domain."""


class DivergenceError(MaxentLabError):
    """Training produced a non-finite loss or non-finite parameters.

    ``arm`` is the index of the diverged model in its ``train_stack`` call:
    after a stack diverges, its arms train again alone, in order, and the
    first solo error is raised with its arm's index (0 for ``train``).
    """

    def __init__(
        self,
        message: str,
        epoch: int | None = None,
        batch: int | None = None,
        arm: int | None = None,
    ):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.arm = arm


class ParseError(MaxentLabError):
    """Config text could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(MaxentLabError):
    """Config parsed but a field value is not acceptable."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class FormatError(MaxentLabError):
    """A serialized artifact does not match its declared format."""


class IoError(MaxentLabError):
    """Filesystem operation failed."""


class ManifestError(MaxentLabError):
    """A run manifest does not match the artifacts on disk."""
