"""Estimators that turn extinction-time samples into testable numbers."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SampleSummary:
    """Moments and quantiles of a batch; censored entries counted, never dropped.

    Mean/SE/quantiles are computed on the uncensored part only, so they are
    meaningful only in regimes where censoring is rare.
    """

    count: int
    censored_count: int
    mean: float
    se: float
    quantiles: tuple[float, float, float]  # 25%, 50%, 75%

    def as_dict(self) -> dict:
        return asdict(self)


class TauBatch:
    """Mergeable accumulator of (value, censored) observations.

    Merging is commutative and associative: summaries are computed from the
    pooled values after sorting, so worker order never shows through.
    """

    def __init__(self):
        self.values: list[float] = []
        self.censored: list[float] = []

    def add(self, value: float, censored: bool = False) -> None:
        (self.censored if censored else self.values).append(value)

    def merge(self, other: "TauBatch") -> "TauBatch":
        out = TauBatch()
        out.values = self.values + other.values
        out.censored = self.censored + other.censored
        return out

    def summary(self) -> SampleSummary:
        vals = np.sort(np.asarray(self.values, dtype=float))
        n = vals.size
        if n == 0:
            return SampleSummary(0, len(self.censored), math.nan, math.nan,
                                 (math.nan, math.nan, math.nan))
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
        q = tuple(float(x) for x in np.quantile(vals, [0.25, 0.5, 0.75]))
        return SampleSummary(n, len(self.censored), mean, se, q)


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
