"""Estimators that turn extinction-time samples into testable numbers."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def tau_summary(taus: Sequence[float], censored: Sequence[bool]) -> dict:
    """Counts, moments and quartiles of a batch of extinction times.

    Censored entries are counted, never dropped; the mean, standard error
    and 25/50/75 % quantiles are taken over the uncensored values, sorted
    first so that the input order never shows through.  They are
    meaningful only where censoring is rare, and NaN when no uncensored
    value is left (the standard error: fewer than two).  Non-finite taus,
    censored or not, raise ValueError.
    """
    t = np.asarray(taus, dtype=float)
    flags = np.asarray(censored, dtype=bool)
    if t.ndim != 1 or flags.shape != t.shape:
        raise ValueError("taus and censored must be 1-d and of equal length")
    if not np.isfinite(t).all():
        raise ValueError("taus must be finite")
    vals = np.sort(t[~flags])
    n = vals.size
    if n == 0:
        mean, q = math.nan, [math.nan] * 3
    else:
        mean = float(vals.mean())
        q = [float(x) for x in np.quantile(vals, [0.25, 0.5, 0.75])]
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return {"count": n, "censored_count": int(flags.sum()), "mean": mean, "se": se,
            "quantiles": q}


def ks_to_exp1(sample: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance between the empirical law of `sample`
    and the unit-mean exponential, evaluated exactly at the jump points.

    The sample is expected to be already normalized by its estimated mean;
    censored values must not be passed here.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    if not np.all(x >= 0):  # NaN fails too
        raise ValueError("normalized sample must be non-negative")
    cdf = 1.0 - np.exp(-x)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def fit_loglinear(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Ordinary least squares fit y = slope*x + intercept.

    Returns (slope, intercept, r_squared) as floats; exact on collinear
    input.  A residual-free fit of constant data has zero variance on both
    sides; we define its r_squared as 1.  Non-finite xs or ys raise
    ValueError.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3:
        raise ValueError("need at least three points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("xs and ys must be finite")
    if np.all(x == x[0]):
        raise ValueError("xs are all equal: slope undefined")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    slope = sxy / sxx
    intercept = float(ym - slope * xm)
    ss_res = float(((y - slope * x - intercept) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2
