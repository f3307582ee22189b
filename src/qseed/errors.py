"""Exception hierarchy shared across the pipeline.

Each error carries the exit code the CLI returns for it: UsageError -> 1,
DataError and subclasses -> 2, NumericError -> 3.
"""


class QSeedError(Exception):
    """Base class for all package errors."""

    exit_code: int


class UsageError(QSeedError, ValueError):
    """Bad flags or configuration values.

    Also a ValueError, so a configuration class that raises it on a bad
    field value keeps the conventional exception type for library callers.
    """

    exit_code = 1


class DataError(QSeedError):
    """Invalid or insufficient input data."""

    exit_code = 2


class SchemaError(DataError):
    """A required column or field is missing."""


class ParseError(DataError):
    """A malformed cell or line; message carries the location."""


class NumericError(QSeedError):
    """Non-finite value encountered during optimization."""

    exit_code = 3
