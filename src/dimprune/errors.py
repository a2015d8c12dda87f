"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract, so raising the right
class matters more than the message text.
"""

import sys


class DimPruneError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DimPruneError, ValueError):
    """Operand shapes are incompatible. Messages name both shapes."""


class NumericError(DimPruneError, ArithmeticError):
    """Non-finite values or other numeric breakdown."""


class UsageError(DimPruneError, RuntimeError):
    """An API was driven outside its contract (e.g. reusing a consumed tape)."""


class ConfigError(DimPruneError, ValueError):
    """A configuration value or key is invalid."""


class FormatError(DimPruneError, ValueError):
    """A file or byte stream does not match its declared format."""


def refuse_oversized(entries: int, what: str):
    """Raise MemoryError for ``what``, an allocation of ``entries`` float64
    values, if its byte count is more than numpy can count: numpy refuses
    such an array with a ValueError ("array is too big"), not the
    MemoryError of an allocation the machine cannot give."""
    if entries * 8 > sys.maxsize:
        raise MemoryError(f"{what} needs {entries} float64 entries, more bytes than "
                          "an array can hold")
