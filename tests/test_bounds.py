import math

import numpy as np
import pytest

from geocp.bounds import (early_extinction_floor, extinction_time_bound,
                          log_clique_persistence_time, log_extinction_time_bound,
                          rgg_log_tau_scale, ruin_probability)


def test_clique_persistence_time_values():
    # 640*ln(640)/16 = 40*ln 640, evaluated independently
    assert log_clique_persistence_time(640, 1.0) == pytest.approx(40 * math.log(640), abs=1e-12)
    assert log_clique_persistence_time(16, 1.0) == pytest.approx(math.log(16), abs=1e-12)
    # lam*m = e makes the log equal one
    assert log_clique_persistence_time(32, math.e / 32) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        log_clique_persistence_time(10, 0.05)


def test_extinction_time_bound_values():
    assert log_extinction_time_bound(1, 0, 1.0) == pytest.approx(math.log(2.0))
    assert log_extinction_time_bound(2, 1, 1.0) == pytest.approx(math.log(32.0))
    assert log_extinction_time_bound(5, 4, 0.0) == pytest.approx(math.log(5) + 5 * math.log(2))
    assert extinction_time_bound(2, 1, 1.0) == pytest.approx(32.0)
    with pytest.raises(OverflowError):
        extinction_time_bound(500, 124750, 1.0)
    with pytest.raises(ValueError):
        log_extinction_time_bound(0, 0, 1.0)


def test_early_extinction_floor_values():
    assert early_extinction_floor(1, 0, 1.0) == pytest.approx(0.5)
    assert early_extinction_floor(2, 1, 1.0) == pytest.approx(1.0 / 16.0)
    # infection-free case: 2^-v, below the exact independent value (1-1/e)^v
    for v in range(1, 31):
        floor = early_extinction_floor(v, 0, 0.0)
        assert floor == pytest.approx(2.0**-v)
        assert (1 - math.exp(-1)) ** v >= floor


def _ruin_dp(p_up, lower, upper, start):
    # independent oracle: linear solve of the harmonic equations
    n = upper - lower
    a = np.zeros((n - 1, n - 1))
    b = np.zeros(n - 1)
    for i in range(1, n):
        a[i - 1, i - 1] = 1.0
        if i - 1 >= 1:
            a[i - 1, i - 2] = -(1 - p_up)
        else:
            b[i - 1] += 1 - p_up  # hitting the lower boundary counts as ruin
        if i + 1 <= n - 1:
            a[i - 1, i] = -p_up
    h = np.linalg.solve(a, b)
    return h[start - lower - 1]


def test_ruin_probability_closed_form():
    assert ruin_probability(2 / 3, 2, 6, 4) == pytest.approx(0.2, abs=1e-12)
    # p -> 1 with start adjacent to the top: ruin probability vanishes
    assert ruin_probability(0.999999, 0, 10, 9) < 1e-5
    with pytest.raises(ValueError):
        ruin_probability(0.7, 3, 7, 3)
    with pytest.raises(ValueError):
        ruin_probability(1.0, 0, 4, 2)


def test_ruin_probability_matches_dp_solver():
    cases = [(0.7, 0, 12, 5), (0.3, 0, 9, 4), (0.5, 0, 30, 11), (0.52, 0, 25, 13),
             (0.9, 0, 6, 3), (2 / 3, 0, 4, 2)]
    for p, lo, hi, st in cases:
        assert ruin_probability(p, lo, hi, st) == pytest.approx(
            _ruin_dp(p, lo, hi, st), rel=1e-12, abs=1e-14)


def test_ruin_matches_martingale_bound():
    # walk skeleton of a heavily infected clique: lam=10, m=64, drift ratio
    # theta = 4/(lam*m); ruin from m/2 before 3m/4 is at most theta^(m/4)
    lam, m = 10.0, 64
    p_up = lam * m / (lam * m + 4)
    theta = 4.0 / (lam * m)
    q = ruin_probability(p_up, m // 4, 3 * m // 4, m // 2)
    # the exact value is theta^16/(1 + theta^16), a hair below theta^16;
    # allow last-bit roundoff in the comparison
    assert q <= theta ** (m / 4) * (1 + 1e-12)
    assert q > 0


def test_rgg_log_tau_scale():
    assert rgg_log_tau_scale(5.0, math.e, 1.0, 2) == pytest.approx(5.0)
    assert rgg_log_tau_scale(100, 1.0, 10.0, 2) == pytest.approx(100 * math.log(100.0))
    assert rgg_log_tau_scale(100.0, 0.5, 10.0, 2) == pytest.approx(100 * math.log(50.0))
    assert rgg_log_tau_scale(20, 1.0, 10.0, 2) * 2 == pytest.approx(
        rgg_log_tau_scale(40, 1.0, 10.0, 2))
    with pytest.raises(ValueError, match="regime"):
        rgg_log_tau_scale(100, 0.5, 1.0, 2)


def test_floor_holds_on_two_clique_simulation():
    # the closed-form floor 1/16 for the 2-clique at lam=1 is beaten by the
    # simulated one-second extinction frequency
    from geocp.contact import sample_extinction_times
    from geocp.graphs import build_complete

    floor = early_extinction_floor(2, 1, 1.0)
    assert floor == pytest.approx(1 / 16)
    taus, censored = sample_extinction_times(build_complete(2), 1.0, t_cap=1.0,
                                             master_seed=31, replicas=100_000)
    p_hat = float((~censored).mean())
    se = math.sqrt(p_hat * (1 - p_hat) / len(taus))
    assert p_hat >= floor - 3 * se
