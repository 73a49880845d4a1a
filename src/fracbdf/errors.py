"""Exception types shared across the package."""

import functools
from numbers import Integral


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
    string, a wrong-length entry, an unknown keyword, a missing key) raises
    ParameterDomainError instead of the ValueError, TypeError or KeyError
    that parsing it raised."""
    @functools.wraps(parse)
    def wrapper(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ParameterDomainError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            raise ParameterDomainError(f"malformed config: {exc!s}") from exc
    return wrapper


def config_int(value, name: str) -> int:
    """A count read from a config: an integer, not a bool, a float (2.7
    would be truncated) or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterDomainError(f"{name} must be an integer, got {value!r}")
    return int(value)
