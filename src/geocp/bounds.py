"""Closed-form scales and bounds for extinction times.

Everything here is a pure function of its arguments, and large quantities
are returned in natural-log space.
"""

from __future__ import annotations

import math

from .errors import as_int


def _check_graph(v: int, e: int, lam: float) -> None:
    """Written so that NaN fails every check."""
    as_int(v, "the vertex count must be a positive integer", 1)
    as_int(e, "the edge count must be a non-negative integer")
    if not 0.0 <= lam < math.inf:
        raise ValueError("lam must be finite and non-negative")


def log_extinction_time_bound(v: int, e: int, lam: float) -> float:
    """log F(v, e) with F = v*(2 + 4*lam*e/v)^v, a universal upper-bound
    scale: extinction beats F with probability >= 1 - exp(-v) and the mean
    extinction time is at most 2F.
    """
    _check_graph(v, e, lam)
    return math.log(v) + v * math.log(2.0 + 4.0 * lam * e / v)


def rgg_log_tau_scale(n: float, lam: float, radius: float, dim: int) -> float:
    """Predicted scale n*log(lam*R^d) for the log extinction time on a
    geometric graph with volume parameter n and connection radius R.

    Only defined in the regime 1 < lam*R^d < inf; outside it the scale
    would be non-positive (or not a number) and the prediction does not
    apply.  The checks are written so that NaN fails them.
    """
    dim = as_int(dim, "dim must be a positive integer", 1)
    if not (n > 0 and radius > 0):
        raise ValueError("need n > 0 and radius > 0")
    lrd = lam * radius**dim
    if not 1.0 < lrd < math.inf:
        raise ValueError(
            f"lam*R^d = {lrd:g}: outside the large-radius regime 1 < lam*R^d < inf, "
            "no positive scale"
        )
    return n * math.log(lrd)
