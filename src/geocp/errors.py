"""Shared exception types and the one rule for integer arguments."""

from numbers import Integral


class BudgetExceededError(ValueError):
    """An exact oracle was asked for an instance beyond its stated budget."""


def as_int(x, rule: str, least: float = 0) -> int:
    """`x` as a Python int when it is an integer, numpy's included, of at
    least `least`; anything else, bools too, raises ValueError(rule)."""
    if isinstance(x, bool) or not isinstance(x, Integral) or x < least:
        raise ValueError(f"{rule}, not {x!r}")
    return int(x)
