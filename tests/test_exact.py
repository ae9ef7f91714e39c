import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from geocp import exact as exact_module
from geocp.contact import birth_death_clique_simulate
from geocp.errors import BudgetExceededError
from geocp.exact import (_class_adjacency, _twin_classes, clique_extinction_rates,
                         exact_expected_extinction_ctmc, log_exact_clique_extinction,
                         sample_clique_extinction_times)
from geocp.graphs import CaterpillarSpec, Graph, build_caterpillar, build_complete
from geocp.rng import mix64


def _clique_mean(m: int, lam: float) -> float:
    return math.exp(log_exact_clique_extinction(m, lam))


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_clique_closed_form_small():
    # two-state solve: E2 = 1/2 + E1, E1 = 1/(1+lam) + lam/(1+lam)*E2
    assert _clique_mean(2, 1.0) == pytest.approx(2.0, abs=1e-12)
    for lam in (0.2, 1.0, 5.0):
        assert _clique_mean(1, lam) == pytest.approx(1.0, abs=1e-12)
    # lam -> 0 decouples: mean of max of two unit exponentials
    assert _clique_mean(2, 1e-14) == pytest.approx(1.5, rel=1e-9)


def test_clique_log_space_survives_large_m():
    lv = log_exact_clique_extinction(500, 1.0)
    assert lv > 700  # far beyond double range, still finite in log space


def test_ctmc_matches_clique_recursion():
    for m, lam in [(2, 1.0), (3, 0.5), (5, 1.0), (6, 2.0)]:
        g = build_complete(m)
        assert exact_expected_extinction_ctmc(g, lam) == pytest.approx(
            _clique_mean(m, lam), rel=1e-9)


def test_ctmc_simple_cases():
    assert exact_expected_extinction_ctmc(Graph.from_edges(1, []), 1.0) == pytest.approx(1.0)
    # isolated vertices: mean of the max of unit exponentials
    g3 = Graph.from_edges(3, [])
    assert exact_expected_extinction_ctmc(g3, 1.0) == pytest.approx(11 / 6, rel=1e-9)


def test_ctmc_budget():
    # paths of four or more vertices are twin-free: the widest level is
    # C(n, n // 2), so the budget is n <= min(cap, 14)
    with pytest.raises(BudgetExceededError,
                       match=r"at least 1716 states after 13 of 13 twin classes, above .* 924 "
                             r"states for limit 12"):
        exact_expected_extinction_ctmc(_path(13), 1.0)
    # raising the cap within the hard limit is allowed; the loop stops at
    # C(15, 7), the first width above C(14, 7)
    with pytest.raises(BudgetExceededError,
                       match=r"6435 states after 15 of 21 twin classes, .* 3432 states for limit 14"):
        exact_expected_extinction_ctmc(_path(21), 1.0, cap=25)
    with pytest.raises(BudgetExceededError, match="0 states for limit -1"):
        exact_expected_extinction_ctmc(build_complete(1), 1.0, cap=-1)
    # few classes, one wide level: K_{100,100,100} is three false-twin classes
    parts = [range(100 * i, 100 * i + 100) for i in range(3)]
    tripartite = Graph.from_edges(300, [(a, b) for i in range(3) for j in range(i + 1, 3)
                                        for a in parts[i] for b in parts[j]])
    with pytest.raises(BudgetExceededError, match="at least 7651 states after 3 of 3 twin .* 924 "):
        exact_expected_extinction_ctmc(tripartite, 1.0)
    # one class of any size is one state per level, even at cap = 0: five
    # isolated vertices die out after the maximum of five unit exponentials
    assert exact_expected_extinction_ctmc(Graph.from_edges(5, []), 1.0, cap=0) == pytest.approx(
        137 / 60, rel=1e-12)
    # a clique lumps to one state per level, so K13 and K40 are accepted
    # (test_ctmc_exact_in_metastable_cliques holds them to the recursion)


def test_ctmc_rejects_bad_rates():
    for lam in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam"):
            exact_expected_extinction_ctmc(build_complete(3), lam)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
def test_clique_routes_reject_bad_lam(lam):
    # NaN once gave the lam = 0 answer, and inf an infinite log mean
    calls = [lambda: log_exact_clique_extinction(5, lam),
             lambda: clique_extinction_rates(5, lam),
             lambda: sample_clique_extinction_times(5, lam, 3, 0),
             lambda: exact_expected_extinction_ctmc(build_complete(5), lam)]
    for call in calls:
        with pytest.raises(ValueError, match="lam must be finite and non-negative"):
            call()


def test_import_geocp_loads_no_scipy():
    # scipy is a test-only dependency; geocp itself needs numpy alone
    code = "import sys, geocp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_ctmc_hard_cap_refuses_before_allocating(monkeypatch):
    # the widest level of P15 alone would be C(15, 7)^2 doubles (331 MB),
    # and its 2^15 count vectors 3.9 MB; P5000's class adjacency would be
    # 200 MB.  Paths are twin-free, so the width loop refuses both after 15
    # and 13 classes, before any of these is built
    def no_adjacency(*args):
        raise AssertionError("class adjacency built before the budget was checked")

    monkeypatch.setattr(exact_module, "_class_adjacency", no_adjacency)
    for g, cap, bound in [(_path(15), 15, 1e6), (_path(5000), 12, 8e6)]:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=f"{g.vertex_count} twin classes"):
                exact_expected_extinction_ctmc(g, 1.0, cap=cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


@pytest.mark.parametrize("m", [8, 9, 10, 11, 12, 13, 40])
@pytest.mark.parametrize("lam", [3.0, 8.0])
def test_ctmc_exact_in_metastable_cliques(m, lam):
    # E[tau] reaches 3.3e16 on K12 at lam = 8, and 1e80 on K40
    assert exact_expected_extinction_ctmc(build_complete(m), lam) == pytest.approx(
        _clique_mean(m, lam), rel=1e-12)


def test_twin_classes():
    # C(2, 3): three true-twin triples and the three spine vertices
    adjacency = build_caterpillar(CaterpillarSpec(2, 3)).graph.adjacency
    classes = _twin_classes(adjacency)
    B = _class_adjacency(adjacency, classes)
    assert classes == [[0], [1], [2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    assert B.tolist() == [[0, 1, 0, 1, 0, 0],
                          [1, 0, 1, 0, 1, 0],
                          [0, 1, 0, 0, 0, 1],
                          [1, 0, 0, 1, 0, 0],
                          [0, 1, 0, 0, 1, 0],
                          [0, 0, 1, 0, 0, 1]]
    # P3: the two ends are false twins
    adjacency = _path(3).adjacency
    classes = _twin_classes(adjacency)
    B = _class_adjacency(adjacency, classes)
    assert classes == [[0, 2], [1]]
    assert B.tolist() == [[0, 1], [1, 0]]
    # a path of four or more vertices has none
    adjacency = _path(6).adjacency
    classes = _twin_classes(adjacency)
    B = _class_adjacency(adjacency, classes)
    assert classes == [[v] for v in range(6)]
    assert B.tolist() == [[int(abs(i - j) == 1) for j in range(6)] for i in range(6)]


def _dense_generator_mean(g: Graph, lam: float) -> float:
    """Full-start mean from one dense solve of the whole killed generator,
    refined once with the residual taken exactly in rationals.

    Dense metastable cells (E[tau] ~ 2e5 on 8 vertices at lam = 3) have
    condition numbers near 1e8, and a diagonal summed in doubles leaks
    ~1e-16 per jump: a plain solve was 1e-10 off the 30-digit value there.
    The residual 1 - sum_t rate (x_s - x_t) of each state s is formed in
    `Fraction`s, so the refinement is the same on every host."""
    n = g.vertex_count
    size = 1 << n
    jumps = [[(s ^ 1 << v, 1.0) if s >> v & 1 else
              (s | 1 << v, lam * sum(s >> w & 1 for w in g.adjacency[v])) for v in range(n)]
             for s in range(size)]
    Q = np.zeros((size, size))
    for s in range(1, size):
        for t, rate in jumps[s]:
            Q[s, t] = rate
        Q[s, s] = -Q[s].sum()
    A = -Q[1:, 1:]
    x = np.linalg.solve(A, np.ones(size - 1))
    exact = [Fraction(0)] + [Fraction(v) for v in x.tolist()]  # extinct: x = 0
    residual = [float(1 - sum(Fraction(rate) * (exact[s] - exact[t])
                              for t, rate in jumps[s] if rate)) for s in range(1, size)]
    x += np.linalg.solve(A, residual)
    return float(x[-1])


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


@st.composite
def inflated_graphs(draw):
    """Graphs full of twins: each vertex of a random base graph on 1-4
    vertices becomes a clique or an independent set of 1-3 vertices, up to
    8 vertices in all, and the labels are shuffled."""
    base = draw(small_graphs().filter(lambda g: g.vertex_count <= 4))
    sizes, cliques = [], []
    for v in range(base.vertex_count):
        room = 8 - sum(sizes) - (base.vertex_count - 1 - v)
        sizes.append(draw(st.integers(1, min(3, room))))
        cliques.append(draw(st.booleans()))
    blocks, start = [], 0
    for size in sizes:
        blocks.append(range(start, start + size))
        start += size
    label = draw(st.permutations(range(start)))
    edges = {(a, b) for v, block in enumerate(blocks) if cliques[v]
             for a in block for b in block if a < b}
    edges |= {(a, b) for v in range(base.vertex_count) for w in base.adjacency[v] if v < w
              for a in blocks[v] for b in blocks[w]}
    return Graph.from_edges(start, sorted(tuple(sorted((label[a], label[b]))) for a, b in edges))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(small_graphs(), inflated_graphs()), st.floats(0.05, 3.0))
@example(build_caterpillar(CaterpillarSpec(1, 4)).graph, 1.0)  # 1 024 states, 100 lumped
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
    exact_mean = _clique_mean(m, lam)
    se = drawn.std(ddof=1) / math.sqrt(len(drawn))
    assert abs(drawn.mean() - exact_mean) <= 3.5 * se


def test_sampler_reaches_unreachable_regimes():
    # mean ~ 4.7e21: no simulation could produce these, the sampler can
    taus = sample_clique_extinction_times(30, 0.5, 64, seed=1)
    assert np.isfinite(taus).all()
    assert taus.mean() > 1e19


def _one_shot_samples(m, lam, count, seed):
    """The sampler as one (count, m) array of uniforms."""
    rates = clique_extinction_rates(m, lam)
    u = np.random.default_rng(mix64(seed, 0x50485459)).random((count, m))
    return (-np.log1p(-u) / rates).sum(axis=1)


@pytest.mark.parametrize("m, lam, count", [(11, 1.0, 20_000), (30, 0.1, 20_000), (1, 0.5, 10),
                                           (200, 0.05, 3000), (5, 0.3, 0), (7, 2.0, 70_001)])
def test_sampler_blocks_draw_the_one_shot_samples(m, lam, count):
    blocked = sample_clique_extinction_times(m, lam, count, seed=12)
    one_shot = _one_shot_samples(m, lam, count, 12)
    assert blocked.dtype == one_shot.dtype and blocked.shape == (count,)
    assert blocked.tobytes() == one_shot.tobytes()


def test_sampler_memory_is_bounded_by_its_block():
    # the one-shot form held four (count, m) float arrays at its peak
    # (19.2 MB here); the blocked one holds the 160 kB output and at most
    # two 512 kB blocks, and the bound leaves ~0.8 MB of margin over that
    sample_clique_extinction_times(30, 0.1, 10, seed=1)
    tracemalloc.start()
    try:
        sample_clique_extinction_times(30, 0.1, 20_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
