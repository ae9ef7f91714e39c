"""Shared exception types and the one rule each for integer, real and
vertex-set arguments."""

import math
import sys
from numbers import Integral, Real

# as_real's interval is closed: these ends stand for "> 0" and "< inf"
ABOVE_ZERO = math.ulp(0.0)  # the least positive float
BELOW_INF = sys.float_info.max  # the largest finite float


class BudgetExceededError(ValueError):
    """An exact oracle was asked for an instance beyond its stated budget."""


def as_int(x, rule: str, least: float = 0) -> int:
    """`x` as a Python int when it is an integer, numpy's included, of at
    least `least`; anything else, bools too, raises ValueError(rule)."""
    # exact ints (floats in as_real) skip the ABC check: ~0.5 us, never cached
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, Integral)) or x < least:
        raise ValueError(f"{rule}, not {x!r}")
    return int(x)


def as_real(x, rule: str, low: float, high: float) -> float:
    """`x` as a Python float when it is a real number, numpy's included, in
    [low, high] compared as doubles; anything else, bools, strings and NaN
    too, raises ValueError(rule)."""
    real = type(x) is float or isinstance(x, Real) and not isinstance(x, bool)
    if not real or not low <= float(x) <= high:
        raise ValueError(f"{rule}, not {x!r}")
    return float(x)


def as_vertex_set(vertices, n: int, rule: str) -> frozenset[int]:
    """The members of `vertices` as Python ints when each is an integer,
    numpy's included, with 0 <= v < n; anything else, bools too, raises
    ValueError(rule)."""
    members = frozenset([as_int(v, rule) for v in vertices])
    if members and max(members) >= n:
        raise ValueError(f"{rule}, not {max(members)}")
    return members
