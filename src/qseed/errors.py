"""Exception hierarchy shared across the pipeline.

Each error carries the exit code the CLI returns for it: UsageError -> 1,
DataError and subclasses -> 2, NumericError -> 3.
"""

# Every text input is UTF-8; a leading byte-order mark, which spreadsheet
# tools write, is dropped.
TEXT_ENCODING = "utf-8-sig"


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


def not_utf8(path: str, error: type) -> QSeedError:
    """`error` for a text file that failed to decode as UTF-8, naming the
    line of its first bad byte (lines end at CR, LF or CRLF).

    Readers call it only after a decode has failed, so a valid file is never
    read twice.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return error(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    return error(f"{path}: not UTF-8 text")


def read_lines(path: str, error: type) -> list[str]:
    """The lines of a text file without their ends (CR, LF or CRLF), one
    final empty line dropped. A file that cannot be opened or is not UTF-8
    raises `error` naming the path.

    The whole file is decoded at once: a streaming decoder would read a file
    holding only part of a byte-order mark as empty text.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise error(f"{path}: {exc.strerror}") from None
    try:
        text = data.decode(TEXT_ENCODING)
    except UnicodeDecodeError:
        raise not_utf8(path, error) from None
    # str.splitlines would also split on \x0b, \x1c, \u2028 and others
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
