"""Shared helpers: exception types, one range check, checked records, the file reader, read-only and scalar results."""

import math
from collections import namedtuple

import numpy as np

__all__ = [
    "HapsimError",
    "ConfigError",
    "ConfigSyntaxError",
    "ValidationError",
    "DegenerateGeometryError",
    "OutOfCoverageError",
    "DomainError",
]


class HapsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(HapsimError):
    """Invalid or inconsistent configuration.

    An error found in scenario text names its line, and the file when
    ``source`` is given.
    """

    def __init__(self, message, line_no=None, source=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
            if source is not None:
                message = f"{source}, {message}"
        super().__init__(message)
        self.line_no = line_no


class ConfigSyntaxError(ConfigError):
    """Scenario file could not be parsed; carries the offending line number."""


class ValidationError(ConfigError):
    """A configuration field holds a value outside its allowed set.

    ``field`` names one field, or is a tuple of every field a check across
    fields involves; ``fields`` always holds the tuple and ``field`` the
    names as the message gives them.
    """

    def __init__(self, field, message, line_no=None, source=None):
        self.fields = (field,) if isinstance(field, str) else tuple(field)
        self.field = ", ".join(self.fields)
        super().__init__(f"{self.field}: {message}", line_no, source)
        self.reason = message


class DegenerateGeometryError(HapsimError):
    """Geometry query on coincident or otherwise degenerate points."""


class OutOfCoverageError(HapsimError):
    """Requested direction or position is not served by any beam; ``beam`` indexes the beam at fault, if one is."""

    def __init__(self, message, beam=None):
        super().__init__(message)
        self.beam = beam


class DomainError(HapsimError):
    """Numeric argument outside the mathematical domain of an operation."""


# ulp(0.0) is the least positive float, so ``ulp(0.0) <= value`` means ``value > 0``
POSITIVE = (math.ulp(0.0), math.inf)
FRACTION = (math.ulp(0.0), 1.0)
NON_NEGATIVE = (0.0, math.inf)


def check_range(value, lo, hi, error, message: str) -> None:
    """Raise ``error(message)`` unless ``lo <= value <= hi`` for the value or each entry: NaN fails.

    A ``{}`` in ``message`` is filled with the first entry that fails.  A Python scalar takes the
    chained comparison alone, an array its minimum and maximum, which NaN propagates to.
    """
    if isinstance(value, (int, float)):
        if lo <= value <= hi:
            return
    else:
        value = np.asarray(value)
        if not value.size or lo <= value.min() and value.max() <= hi:
            return
        value = value[~((lo <= value) & (value <= hi))].flat[0]
    raise error(message.format(value))


def checked_record(name: str, fields: str):
    """A named-tuple base with ``fields`` and no defaults, whose subclass checks its values in ``__new__``.

    ``_make``, and so ``_replace``, build through ``cls(...)``, so neither skips the check;
    unpickling calls ``__new__`` as well.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, no longer writeable, for an array that several callers share."""
    array.flags.writeable = False
    return array


def scalar_or_array(result):
    """A 0-d numpy result as a float, so scalars in give a scalar out; an array as it is."""
    return float(result) if result.ndim == 0 else result


def read_utf8(path) -> str:
    """An input file's text; a byte that is not UTF-8 raises ``ConfigError`` naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"not valid UTF-8 (byte 0x{data[exc.start]:02x})", line, path) from None
