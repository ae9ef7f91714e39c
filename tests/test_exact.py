import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from geocp.contact import birth_death_clique_simulate
from geocp.errors import BudgetExceededError
from geocp.exact import (clique_extinction_rates, exact_clique_extinction,
                         exact_expected_extinction_ctmc, log_exact_clique_extinction,
                         sample_clique_extinction_times)
from geocp.graphs import Graph, build_complete


def test_clique_closed_form_small():
    # two-state solve: E2 = 1/2 + E1, E1 = 1/(1+lam) + lam/(1+lam)*E2
    assert exact_clique_extinction(2, 1.0) == pytest.approx(2.0, abs=1e-12)
    for lam in (0.2, 1.0, 5.0):
        assert exact_clique_extinction(1, lam) == pytest.approx(1.0, abs=1e-12)
    # lam -> 0 decouples: mean of max of two unit exponentials
    assert exact_clique_extinction(2, 1e-14) == pytest.approx(1.5, rel=1e-9)


def test_clique_log_space_survives_large_m():
    lv = log_exact_clique_extinction(500, 1.0)
    assert lv > 700  # far beyond double range, still finite in log space
    with pytest.raises(OverflowError):
        exact_clique_extinction(500, 1.0)


def test_ctmc_matches_clique_recursion():
    for m, lam in [(2, 1.0), (3, 0.5), (5, 1.0), (6, 2.0)]:
        g = build_complete(m)
        assert exact_expected_extinction_ctmc(g, lam) == pytest.approx(
            exact_clique_extinction(m, lam), rel=1e-9)


def test_ctmc_simple_cases():
    assert exact_expected_extinction_ctmc(Graph.from_edges(1, []), 1.0) == pytest.approx(1.0)
    # isolated vertices: mean of the max of unit exponentials
    g3 = Graph.from_edges(3, [])
    assert exact_expected_extinction_ctmc(g3, 1.0) == pytest.approx(11 / 6, rel=1e-9)


def test_ctmc_budget():
    with pytest.raises(BudgetExceededError):
        exact_expected_extinction_ctmc(build_complete(13), 1.0)
    # raising the cap within the hard limit is allowed
    with pytest.raises(BudgetExceededError):
        exact_expected_extinction_ctmc(build_complete(21), 1.0, cap=25)


def test_ctmc_rejects_bad_rates():
    for lam in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam"):
            exact_expected_extinction_ctmc(build_complete(3), lam)


def test_ctmc_hard_cap_refuses_before_allocating():
    # the widest level of K15 alone would be C(15, 7)^2 doubles (331 MB)
    with pytest.raises(BudgetExceededError):
        exact_expected_extinction_ctmc(build_complete(15), 1.0, cap=15)


@pytest.mark.parametrize("m", [8, 10, 12])
@pytest.mark.parametrize("lam", [3.0, 8.0])
def test_ctmc_exact_in_metastable_cliques(m, lam):
    # E[tau] reaches 3.3e16 on K12 at lam = 8
    assert exact_expected_extinction_ctmc(build_complete(m), lam) == pytest.approx(
        math.exp(log_exact_clique_extinction(m, lam)), rel=1e-12)


def _dense_generator_mean(g: Graph, lam: float) -> float:
    """Full-start mean from one dense solve of the whole killed generator."""
    n = g.vertex_count
    size = 1 << n
    Q = np.zeros((size, size))
    for s in range(1, size):
        for v in range(n):
            if s >> v & 1:
                Q[s, s ^ (1 << v)] = 1.0
            else:
                Q[s, s | (1 << v)] = lam * sum(s >> w & 1 for w in g.adjacency[v])
        Q[s, s] = -Q[s].sum()
    return float(np.linalg.solve(-Q[1:, 1:], np.ones(size - 1))[-1])


@st.composite
def small_graphs(draw):
    """Graphs on 1-7 vertices: a random tree plus extra edges, or any edge
    subset (often disconnected, with isolated vertices)."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else set()
    if draw(st.booleans()):
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_graphs(), st.floats(0.05, 3.0))
def test_ctmc_matches_dense_generator_solve(g, lam):
    assert exact_expected_extinction_ctmc(g, lam) == pytest.approx(
        _dense_generator_mean(g, lam), rel=1e-10)


def test_spectral_rates_sum_identity():
    for m, lam in [(3, 0.7), (10, 0.3), (30, 0.5), (30, 0.1), (64, 0.2)]:
        rates = clique_extinction_rates(m, lam)
        assert rates.shape == (m,)
        assert (rates > 0).all()
        log_mean = log_exact_clique_extinction(m, lam)
        assert math.log(float((1.0 / rates).sum())) == pytest.approx(log_mean, abs=1e-10)


def test_spectral_rates_m_one():
    assert clique_extinction_rates(1, 3.0) == pytest.approx([1.0])


def test_sampler_matches_direct_simulation():
    m, lam = 10, 0.3
    sim = np.array([birth_death_clique_simulate(m, lam, m, seed=i).tau
                    for i in range(3000)])
    drawn = sample_clique_extinction_times(m, lam, 3000, seed=99)
    assert ks_2samp(sim, drawn).pvalue > 1e-4
    exact_mean = exact_clique_extinction(m, lam)
    se = drawn.std(ddof=1) / math.sqrt(len(drawn))
    assert abs(drawn.mean() - exact_mean) <= 3.5 * se


def test_sampler_reaches_unreachable_regimes():
    # mean ~ 4.7e21: no simulation could produce these, the sampler can
    taus = sample_clique_extinction_times(30, 0.5, 64, seed=1)
    assert np.isfinite(taus).all()
    assert taus.mean() > 1e19
