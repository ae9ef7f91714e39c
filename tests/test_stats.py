import math

import numpy as np
import pytest

from geocp.stats import TauBatch, fit_loglinear, ks_to_exp1


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


def test_tau_batch_merge_order_independent():
    a, b, c = TauBatch(), TauBatch(), TauBatch()
    for i, batch in enumerate((a, b, c)):
        for k in range(5):
            batch.add(float(i * 5 + k), censored=(k == 4))
    s1 = a.merge(b).merge(c).summary()
    s2 = c.merge(a).merge(b).summary()
    assert s1 == s2
    assert s1.count == 12 and s1.censored_count == 3


def test_summary_moments():
    batch = TauBatch()
    for v in (1.0, 2.0, 3.0, 4.0):
        batch.add(v)
    s = batch.summary()
    assert s.mean == pytest.approx(2.5)
    assert s.se == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2)
    assert s.quantiles[1] == pytest.approx(2.5)
