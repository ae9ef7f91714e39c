import math

import numpy as np
import pytest

from geocp.stats import fit_loglinear, ks_to_exp1, tau_summary


def test_ks_exact_quantile_sample():
    # quarter/half/three-quarter quantiles of the unit exponential; the sup
    # over the six jump comparisons is 0.25
    sample = [math.log(4 / 3), math.log(2), math.log(4)]
    assert ks_to_exp1(sample) == pytest.approx(0.25, abs=1e-12)


def test_ks_constant_sample():
    # point mass at 1: the sup includes the pre-jump comparison
    # |0 - (1 - e^-1)|, which dominates
    assert ks_to_exp1([1.0, 1.0, 1.0]) == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_ks_point_mass_at_zero():
    assert ks_to_exp1([0.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ks_to_exp1([])


def test_ks_rejects_nan():
    with pytest.raises(ValueError, match="non-negative"):
        ks_to_exp1([math.nan, 1.0])


def _unit_exponentials(count, seed):
    return -np.log1p(-np.random.default_rng(seed).random(count))


def test_ks_on_true_exponentials():
    hits = 0
    for seed in range(100):
        x = _unit_exponentials(10_000, seed)
        if ks_to_exp1(x / x.mean()) < 0.02:
            hits += 1
    assert hits >= 95


def test_ks_normalization_invariance():
    x = _unit_exponentials(500, 7) * 3.7
    d1 = ks_to_exp1(x / x.mean())
    y = 123.4 * x
    d2 = ks_to_exp1(y / y.mean())
    assert d1 == pytest.approx(d2, abs=1e-14)


def test_fit_loglinear_exact():
    slope, intercept, r2 = fit_loglinear([1, 2, 3], [2, 4, 6])
    assert all(type(v) is float for v in (slope, intercept, r2))
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_loglinear_constant_convention():
    slope, intercept, r2 = fit_loglinear([0, 1, 2], [1, 1, 1])
    assert slope == pytest.approx(0.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == 1.0  # residual-free constant fit


def test_fit_loglinear_rejects_degenerate():
    with pytest.raises(ValueError):
        fit_loglinear([1, 2], [1, 2])
    with pytest.raises(ValueError):
        fit_loglinear([2, 2, 2], [1, 2, 3])


@pytest.mark.parametrize("xs, ys", [([math.nan, 1, 2], [1, 2, 3]),
                                    ([0, 1, 2], [1, math.nan, 3]),
                                    ([0, math.inf, 2], [1, 2, 3]),
                                    ([0, 1, 2], [1, 2, -math.inf])])
def test_fit_loglinear_rejects_non_finite(xs, ys):
    with pytest.raises(ValueError, match="finite"):
        fit_loglinear(xs, ys)


def test_summary_moments():
    s = tau_summary([1.0, 2.0, 3.0, 4.0], [False] * 4)
    assert s["mean"] == pytest.approx(2.5)
    assert s["se"] == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2)
    assert s["quantiles"][1] == pytest.approx(2.5)


def test_summary_all_censored():
    s = tau_summary([2.0, 2.0, 2.0], [True] * 3)
    assert (s["count"], s["censored_count"]) == (0, 3)
    assert all(math.isnan(x) for x in [s["mean"], s["se"], *s["quantiles"]])
    empty = tau_summary([], [])
    assert (empty["count"], empty["censored_count"]) == (0, 0) and math.isnan(empty["mean"])


def test_summary_one_value():
    s = tau_summary([3.5], [False])
    assert (s["count"], s["censored_count"], s["mean"]) == (1, 0, 3.5)
    assert s["quantiles"] == [3.5, 3.5, 3.5] and math.isnan(s["se"])


def test_summary_mixed_counts_censored_and_ignores_their_values():
    taus = [5.0, 1.0, 99.0, 3.0, 99.0, 2.0]
    cens = [False, False, True, False, True, False]
    s = tau_summary(taus, cens)
    assert (s["count"], s["censored_count"]) == (4, 2)
    assert s == tau_summary([1.0, 2.0, 3.0, 5.0], [False] * 4) | {"censored_count": 2}
    assert s["mean"] == 2.75 and s["quantiles"] == [1.75, 2.5, 3.5]
    # the values are sorted before the mean, so the input order never shows
    assert tau_summary(taus[::-1], cens[::-1]) == s
    assert all(type(v) is float for v in [s["mean"], s["se"], *s["quantiles"]])
    assert type(s["count"]) is int and type(s["censored_count"]) is int


def test_summary_rejects_mismatched_flags():
    with pytest.raises(ValueError, match="equal length"):
        tau_summary([1.0, 2.0], [False])


@pytest.mark.parametrize("taus, censored", [([1.0, math.inf, math.nan], [False] * 3),  # once mean nan
                                            ([1.0, math.inf], [False, True])])
def test_summary_rejects_non_finite_taus(taus, censored):
    with pytest.raises(ValueError, match="finite"):
        tau_summary(taus, censored)
