"""Closed-form scales and bounds for extinction times.

Everything here is a pure function and all large quantities live in
natural-log space; linear accessors refuse when the exponent would leave
the double range.
"""

from __future__ import annotations

import math
import sys

_MAX_EXP = math.log(sys.float_info.max)


def log_clique_persistence_time(m: int, lam: float) -> float:
    """log of exp(m*log(lam*m)/16): the time scale on which a heavily
    infected m-clique stays heavily infected.

    Requires lam*m > 1; below that the formula would flip sign and stop
    meaning a persistence time.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if lam * m <= 1.0:
        raise ValueError(f"lam*m = {lam * m:g} <= 1: no persistence regime")
    return m * math.log(lam * m) / 16.0


def log_extinction_time_bound(v: int, e: int, lam: float) -> float:
    """log F(v, e) with F = v*(2 + 4*lam*e/v)^v, a universal upper-bound
    scale: extinction beats F with probability >= 1 - exp(-v) and the mean
    extinction time is at most 2F.
    """
    if v < 1:
        raise ValueError("graph must have at least one vertex")
    if e < 0:
        raise ValueError("edge count must be non-negative")
    return math.log(v) + v * math.log(2.0 + 4.0 * lam * e / v)


def extinction_time_bound(v: int, e: int, lam: float) -> float:
    """Linear-space F(v, e); refuses if it does not fit in a double."""
    lf = log_extinction_time_bound(v, e, lam)
    if lf > _MAX_EXP:
        raise OverflowError(f"log F = {lf:.3f} exceeds double range; use the log form")
    return math.exp(lf)


def early_extinction_floor(v: int, e: int, lam: float) -> float:
    """Lower bound (2 + 4*lam*e/v)^(-v) on the probability that the process
    started anywhere dies within one time unit."""
    if v < 1:
        raise ValueError("graph must have at least one vertex")
    if e < 0:
        raise ValueError("edge count must be non-negative")
    return math.exp(-v * math.log(2.0 + 4.0 * lam * e / v))


def ruin_probability(p_up: float, lower: int, upper: int, start: int) -> float:
    """Probability that a +-1 random walk with up-step probability `p_up`
    hits `lower` before `upper`, starting from `start`.

    Uses the closed form with ratio r = (1-p)/p; the symmetric case p=1/2
    falls back to the linear formula (N-k)/N.
    """
    if not (0.0 < p_up < 1.0):
        raise ValueError("p_up must lie strictly between 0 and 1")
    if not (lower < start < upper):
        raise ValueError("need lower < start < upper")
    n = upper - lower
    k = start - lower
    if p_up == 0.5:
        return (n - k) / n
    r = (1.0 - p_up) / p_up
    return (r**k - r**n) / (1.0 - r**n)


def rgg_log_tau_scale(n: float, lam: float, radius: float, dim: int) -> float:
    """Predicted scale n*log(lam*R^d) for the log extinction time on a
    geometric graph with volume parameter n and connection radius R.

    Only defined in the regime lam*R^d > 1; outside it the scale would be
    non-positive and the prediction does not apply.
    """
    if n <= 0 or radius <= 0 or dim < 1:
        raise ValueError("need n > 0, radius > 0, dim >= 1")
    lrd = lam * radius**dim
    if lrd <= 1.0:
        raise ValueError(
            f"lam*R^d = {lrd:g} <= 1: outside the large-radius regime, no positive scale"
        )
    return n * math.log(lrd)

