"""Exception hierarchy shared across the package.

The CLI maps every one of these, and any ``OSError``, to exit status 2 with
one ``error:`` line. Exit 1 is left for a failed loss-check and for internal
faults.
"""


class BinsketchError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BinsketchError):
    """A configuration value is out of its allowed range or inconsistent."""


class ValidationError(BinsketchError):
    """Runtime data violates a precondition (shape, dimension, value range)."""


class FormatError(BinsketchError):
    """A file does not conform to the expected on-disk format."""


class ParseError(FormatError):
    """A text input could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
