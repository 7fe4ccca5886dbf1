"""Exceptions and warnings shared across the library."""


class LocalQuantError(Exception):
    """Base class for all localquant errors."""


class AllWeightsZero(LocalQuantError):
    """Every localization weight is zero: no samples near the point of interest."""


class DimensionMismatch(LocalQuantError):
    """Covariate dimension does not match the localization spec."""


class DomainError(LocalQuantError):
    """An argument lies outside the domain an operation is defined on."""


class QuadratureFailure(LocalQuantError):
    """A panel sum of the oracle's quadrature rule is not finite."""


class BracketFailure(LocalQuantError):
    """Root bracketing failed: no sign change on the search interval."""


class ParseError(LocalQuantError):
    """A CSV cell failed to parse; carries row/column location."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column!r})" if column else ")")
        super().__init__(message + loc)
        self.row = row
        self.column = column


class MissingColumn(LocalQuantError):
    """A named column is absent from the CSV header."""


class ConstantColumn(LocalQuantError):
    """A covariate column has zero standard deviation and cannot be normalized."""


class LowEffectiveSampleSizeWarning(UserWarning):
    """Effective sample size is below the recommended minimum of 10."""
