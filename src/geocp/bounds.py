"""Closed-form scales and bounds for extinction times.

Everything here is a pure function of its arguments, and large quantities
are returned in natural-log space.
"""

from __future__ import annotations

import math

from .errors import ABOVE_ZERO, BELOW_INF, as_int, as_real


def log_extinction_time_bound(v: int, e: int, lam: float) -> float:
    """log F(v, e) with F = v*(2 + 4*lam*e/v)^v, a universal upper-bound
    scale: extinction beats F with probability >= 1 - exp(-v) and the mean
    extinction time is at most 2F.
    """
    v = as_int(v, "the vertex count must be a positive integer", 1)
    e = as_int(e, "the edge count must be a non-negative integer")
    lam = as_real(lam, "lam must be finite and non-negative", 0.0, BELOW_INF)
    return math.log(v) + v * math.log(2.0 + 4.0 * lam * e / v)


def rgg_log_tau_scale(n: float, lam: float, radius: float, dim: int) -> float:
    """Predicted scale n*log(lam*R^d) for the log extinction time on a
    geometric graph with volume parameter n and connection radius R.

    Only defined in the regime 1 < lam*R^d < inf; outside it the scale
    would be non-positive (or not a number) and the prediction does not
    apply.  n must be finite.
    """
    dim = as_int(dim, "dim must be a positive integer", 1)
    rule = "need n > 0 and radius > 0, n finite"
    n = as_real(n, rule, ABOVE_ZERO, BELOW_INF)
    radius = as_real(radius, rule, ABOVE_ZERO, math.inf)
    regime = "outside the large-radius regime 1 < lam*R^d < inf, no positive scale"
    lrd = as_real(lam, f"lam: {regime}", 0.0, math.inf) * radius**dim
    if not 1.0 < lrd < math.inf:
        raise ValueError(f"lam*R^d = {lrd:g}: {regime}")
    return n * math.log(lrd)
