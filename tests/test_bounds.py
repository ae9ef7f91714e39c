import math

import pytest

from geocp.bounds import log_extinction_time_bound, rgg_log_tau_scale
from graph_helpers import early_extinction_floor


def test_extinction_time_bound_values():
    assert log_extinction_time_bound(1, 0, 1.0) == pytest.approx(math.log(2.0))
    assert log_extinction_time_bound(2, 1, 1.0) == pytest.approx(math.log(32.0))
    assert log_extinction_time_bound(5, 4, 0.0) == pytest.approx(math.log(5) + 5 * math.log(2))
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


def test_rgg_log_tau_scale():
    assert rgg_log_tau_scale(5.0, math.e, 1.0, 2) == pytest.approx(5.0)
    assert rgg_log_tau_scale(100, 1.0, 10.0, 2) == pytest.approx(100 * math.log(100.0))
    assert rgg_log_tau_scale(100.0, 0.5, 10.0, 2) == pytest.approx(100 * math.log(50.0))
    assert rgg_log_tau_scale(20, 1.0, 10.0, 2) * 2 == pytest.approx(
        rgg_log_tau_scale(40, 1.0, 10.0, 2))
    with pytest.raises(ValueError, match="regime"):
        rgg_log_tau_scale(100, 0.5, 1.0, 2)


@pytest.mark.parametrize("bound", [log_extinction_time_bound, early_extinction_floor])
@pytest.mark.parametrize("v, e, lam, match", [(math.nan, 2, 1.0, "vertex"), (3, math.nan, 1.0, "edge"),
                                              (3, 2, math.nan, "lam"), (3, 2, -1.0, "lam"),
                                              (3, 2, math.inf, "lam")])
def test_graph_bounds_reject_bad_inputs(bound, v, e, lam, match):
    with pytest.raises(ValueError, match=match):
        bound(v, e, lam)


@pytest.mark.parametrize("n, lam, radius", [(math.nan, 1.0, 2.0), (10, math.nan, 2.0),
                                            (10, 1.0, math.nan), (10, math.inf, 2.0)])
def test_rgg_log_tau_scale_rejects_bad_inputs(n, lam, radius):
    with pytest.raises(ValueError, match="need n > 0|regime"):
        rgg_log_tau_scale(n, lam, radius, 2)


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
