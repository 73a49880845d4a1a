"""Exception types shared across the package."""

import functools
import math
from numbers import Integral, Real


class ParameterDomainError(ValueError):
    """A parameter lies outside its documented domain."""


class InternalConsistencyError(RuntimeError):
    """Two redundant computation paths disagree beyond tolerance.

    This signals a transcription or implementation bug rather than a bad
    input, so it is deliberately not a ValueError.
    """


class GridTooCoarseError(RuntimeError):
    """A sweep grid is too coarse to trace the quantity continuously."""


def parses_config(parse):
    """Decorate a config parser so that a malformed value (a non-numeric
    string, a wrong-length entry, an unknown keyword, a missing key, an
    integer too large for a float) raises ParameterDomainError instead of
    the ValueError, TypeError, KeyError or OverflowError that parsing it
    raised."""
    @functools.wraps(parse)
    def wrapper(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ParameterDomainError:
            raise
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            raise ParameterDomainError(f"malformed config: {exc!s}") from exc
    return wrapper


def check_count(value, name: str, minimum: int) -> int:
    """A count: an integer >= minimum, returned as an int.  Bools, floats and
    numeric strings are rejected: True would count as 1, int() would
    truncate 2.7, and NaN fails every comparison."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ParameterDomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_tolerance(value, name: str) -> float:
    """A tolerance: a finite real >= 0, returned as a float.  Bools and
    numeric strings are rejected, and NaN, which would pass or fail every
    comparison silently."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not 0.0 <= value < math.inf):
        raise ParameterDomainError(f"{name} must be a finite real >= 0, got {value!r}")
    return float(value)
