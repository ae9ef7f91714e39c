import gc
import hashlib
import heapq
import math
import weakref
from itertools import count
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocp import contact, rgg
from geocp.contact import (ContactConfig, TauSample, _block_sums, _extinction_kernel,
                           _healthy_flags, _legacy_mt, _mask_of, _pick_target, _replica,
                           _start_state, _sweep, birth_death_clique_simulate,
                           dual_from_record, forward_from_record, lit_snapshots,
                           record_event_window, replica_seed, sample_extinction_times,
                           simulate_coupled, simulate_extinction, simulate_rate_coupled)
from geocp.exact import exact_expected_extinction_ctmc, log_exact_clique_extinction
from geocp.experiments import battery_graphs
from geocp.graphs import (CaterpillarSpec, Graph, build_caterpillar, build_complete,
                          random_connected_graph)
from geocp.rng import TAG_CLOCK, TAG_MARK, uniform_from_key


def test_config_validation():
    # ContactConfig, sample_extinction_times and birth_death_clique_simulate
    # apply the same rule; the last used to return tau = nan for lam = NaN
    # or inf, divide by zero for lam = -1, censor at t_cap = -2 and ignore
    # t_cap = NaN
    g = build_complete(3)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="infection rate"):
            ContactConfig(bad)
        with pytest.raises(ValueError, match="infection rate"):
            sample_extinction_times(g, bad, None, 1, 3)
        with pytest.raises(ValueError, match="infection rate"):
            birth_death_clique_simulate(5, bad, 5, seed=1)
        with pytest.raises(ValueError, match="infection rates"):
            simulate_rate_coupled(g, [0.5, bad], 1, 1.0)
    for bad in (-2.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="t_cap"):
            ContactConfig(1.0, t_cap=bad)
        with pytest.raises(ValueError, match="t_cap"):
            sample_extinction_times(g, 1.0, bad, 1, 3)
        with pytest.raises(ValueError, match="t_cap"):
            birth_death_clique_simulate(5, 0.5, 5, seed=1, t_cap=bad)
    assert ContactConfig(1.0, t_cap=0.0).t_cap == 0.0
    assert birth_death_clique_simulate(5, 0.5, 5, seed=1, t_cap=0.0) == TauSample(0.0, True, 1)


def test_replicas_validated():
    g = build_complete(3)
    for bad in (-1, 2.5, "3", None, True, False):  # True once failed inside numpy
        with pytest.raises(ValueError, match="replicas"):
            sample_extinction_times(g, 1.0, None, 1, bad)
    taus, censored = sample_extinction_times(g, 1.0, None, 1, 0)
    assert taus.shape == censored.shape == (0,)
    assert censored.dtype == bool


def test_simulate_extinction_keeps_no_graph_alive():
    g = build_complete(40)
    ref = weakref.ref(g)
    simulate_extinction(g, ContactConfig(0.5, t_cap=1.0, seed=3))
    del g
    gc.collect()
    assert ref() is None


def test_single_vertex_exponential():
    g = Graph.from_edges(1, [])
    taus, cens = sample_extinction_times(g, 2.0, None, 42, 20000)
    assert not cens.any()
    se = taus.std(ddof=1) / math.sqrt(len(taus))
    assert abs(taus.mean() - 1.0) <= 3 * se


def test_isolated_vertices_order_statistics():
    # lam ~ 0: extinction is the max of three unit exponentials, mean 11/6
    g = Graph.from_edges(3, [])
    taus, _ = sample_extinction_times(g, 1e-9, None, 3, 30000)
    se = taus.std(ddof=1) / math.sqrt(len(taus))
    assert abs(taus.mean() - 11 / 6) <= 3 * se


def test_k2_mean_two():
    taus, _ = sample_extinction_times(build_complete(2), 1.0, None, 7, 30000)
    se = taus.std(ddof=1) / math.sqrt(len(taus))
    assert abs(taus.mean() - 2.0) <= 3 * se


def test_empty_graph_and_empty_initial():
    g = Graph.from_edges(0, [])
    s = simulate_extinction(g, ContactConfig(1.0, seed=1))
    assert s.tau == 0.0 and not s.censored
    g1 = Graph.from_edges(2, [(0, 1)])
    s = simulate_extinction(g1, ContactConfig(1.0, seed=1), initial=[])
    assert s.tau == 0.0 and not s.censored


def test_censoring_contract():
    s = simulate_extinction(build_complete(30), ContactConfig(1.0, t_cap=5.0, seed=2))
    assert s.censored and s.tau == 5.0
    with pytest.raises(ValueError):
        TauSample(math.inf, True, 0)


def test_kernel_engine_oracle_triangle():
    # the kernel agrees with the CTMC oracle
    g = random_connected_graph(5, 2, 77)
    lam = 0.8
    exact = exact_expected_extinction_ctmc(g, lam)
    taus, _ = sample_extinction_times(g, lam, None, 5, 30000)
    se = taus.std(ddof=1) / math.sqrt(len(taus))
    assert abs(taus.mean() - exact) <= 3 * se


def test_rate_monotonicity_pathwise():
    g = build_complete(5)
    for seed in range(60):
        taus = simulate_rate_coupled(g, [0.25, 0.5, 1.0], seed, 200.0)
        vals = [taus[0.25], taus[0.5], taus[1.0]]
        filled = [math.inf if v is None else v for v in vals]
        assert filled == sorted(filled)


def test_coupled_identical_and_empty():
    g = build_complete(5)
    cfg = ContactConfig(0.5, t_cap=3.0, seed=9)
    same = simulate_coupled(g, cfg, [0, 2], [0, 2])
    assert same.final_low == same.final_high and same.tau_low == same.tau_high
    empty = simulate_coupled(g, cfg, [], [0, 1])
    assert empty.tau_low == 0.0 and empty.final_low == frozenset()


def test_coupled_containment_battery():
    g = build_complete(5)
    for seed in range(1000):
        simulate_coupled(g, ContactConfig(0.5, t_cap=2.0, seed=seed), [0, 1], [0, 1, 2, 3])


def test_graphical_outputs_golden():
    """Exact outputs recorded from the separate forward, coupled and
    rate-coupled loops that the shared sweep replaced."""
    g = random_connected_graph(6, 2, 11)
    rec = record_event_window(g, 0.8, 3, 2.0)
    assert len(rec.events) == 33
    forward = [(range(6), 2.0, None, []), (range(6), 1.0, 0.4, [0, 3]),
               ([1, 5], 0.5, 0.8, [0, 2, 5]), ([2, 3], 1.5, 0.2, [])]
    for initial, t_end, lam_eff, final in forward:
        assert sorted(forward_from_record(rec, initial, t_end, lam_eff)) == final
    k5 = build_complete(5)
    coupled = [
        (([0, 1], [0, 1, 2, 3], 0.3, 3.0, 4),
         "CoupledRun(tau_low=1.5039631844235068, tau_high=1.5039631844235068, "
         "final_low=frozenset(), final_high=frozenset(), events=17)"),
        (([], [0, 1], 0.3, 4.0, 7),
         "CoupledRun(tau_low=0.0, tau_high=0.8095034263138378, "
         "final_low=frozenset(), final_high=frozenset(), events=10)"),
        (([0, 2], [1, 3], 0.3, 4.0, 2),
         "CoupledRun(tau_low=None, tau_high=None, "
         "final_low=frozenset({2}), final_high=frozenset({2}), events=48)"),
    ]
    for (low, high, lam, cap, seed), want in coupled:
        assert repr(simulate_coupled(k5, ContactConfig(lam, t_cap=cap, seed=seed), low, high)) == want
    cat = build_caterpillar(CaterpillarSpec(2, 4)).graph
    assert repr(simulate_rate_coupled(cat, [0.1, 0.3, 0.6, 1.2], 1, 5.0)) == \
        "{0.1: 3.9133480249304275, 0.3: None, 0.6: None, 1.2: None}"
    assert repr(simulate_rate_coupled(cat, [0.6, 0.2, 0.6], 3, 5.0, [0])) == \
        "{0.2: 2.0281475028191034, 0.6: None}"


def test_sweep_catches_broken_containment():
    # nested masks, but the inner one takes more infections than the outer
    g = build_complete(5)
    rec = record_event_window(g, 1.0, 8, 5.0)
    low, high = _mask_of([0], 5), _mask_of([0, 1], 5)
    finals, taus, events = _sweep(rec, [low, high], [1.0, 1.0], 5.0)
    assert finals[0] & ~finals[1] == 0 and events > 0
    with pytest.raises(RuntimeError, match="containment"):
        _sweep(rec, [low, high], [1.0, 0.05], 5.0)


def test_dual_degenerate_windows():
    g = build_complete(4)
    dual = dual_from_record(record_event_window(g, 1.0, 3, 0.0), [2], 0.0)
    assert dual[-1][1] == frozenset({2})
    # lam -> 0: the dual holds the target until its recovery clock rings
    g2 = Graph.from_edges(2, [(0, 1)])
    dual2 = dual_from_record(record_event_window(g2, 1e-12, 5, 4.0), [0], 4.0)
    states = [s for _, s in dual2]
    assert states[0] == frozenset({0})
    assert all(s in (frozenset({0}), frozenset()) for s in states)


def test_dual_window_rejection():
    g = build_complete(3)
    rec = record_event_window(g, 1.0, 4, 1.0)
    with pytest.raises(ValueError):
        dual_from_record(rec, [0], 2.0)
    with pytest.raises(ValueError):
        forward_from_record(rec, [0], 2.0)
    with pytest.raises(ValueError, match="out of range"):
        forward_from_record(rec, [3], 1.0)
    with pytest.raises(ValueError, match="out of range"):
        dual_from_record(rec, [3], 1.0)


def test_record_readers_validate_t_end_and_lam_eff():
    rec = record_event_window(build_complete(3), 1.5, 4, 2.0)
    for bad in (math.nan, -1.0, -1e-300, 2.0000001, math.inf):
        with pytest.raises(ValueError, match="t_end"):
            forward_from_record(rec, [0, 1, 2], bad)
        with pytest.raises(ValueError, match="t_end"):
            dual_from_record(rec, [0], bad)
    for bad in (math.nan, -0.5, 0.0, 1.5000001, math.inf):
        with pytest.raises(ValueError, match="thinned rate"):
            forward_from_record(rec, [0, 1, 2], 1.0, bad)
    # the window's ends and the recorded rate itself are accepted
    assert forward_from_record(rec, [0, 1], 0.0) == frozenset({0, 1})
    assert dual_from_record(rec, [2], 0.0) == [(0.0, frozenset({2}))]
    assert forward_from_record(rec, [0, 1, 2], 2.0, 1.5) == forward_from_record(rec, [0, 1, 2], 2.0)


def test_record_event_window_validates_lam(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a clock was drawn before the rate was checked")

    monkeypatch.setattr(contact, "mix64_array", no_draws)
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="infection rate"):
            record_event_window(build_complete(3), bad, 1, 2.0)


def _reference_window(g, lam, seed, horizon):
    """The scalar construction: one clock per stream, merged through a heap.

    Stream s (vertex recoveries first, then the directed edges in adjacency
    order) rings at the previous ring plus -log1p(-u) / rate, where u is the
    uniform of the key (seed, TAG_CLOCK, s, c) for its c-th ring; an
    infection's mark is the uniform of (seed, TAG_MARK, s, c).
    """
    n = g.vertex_count
    streams = [(1.0, 0, v, -1) for v in range(n)]
    streams += [(lam, 1, v, w) for v in range(n) for w in g.adjacency[v]]

    def gap(sid, c):
        return -math.log1p(-uniform_from_key(seed, TAG_CLOCK, sid, c)) / streams[sid][0]

    heap = [(gap(sid, 0), sid, 0) for sid in range(len(streams))]
    heap = [item for item in heap if item[0] <= horizon]
    heapq.heapify(heap)
    events = []
    while heap:
        t, sid, c = heapq.heappop(heap)
        _, kind, a, b = streams[sid]
        mark = uniform_from_key(seed, TAG_MARK, sid, c) if kind else 0.0
        events.append((t, sid, c, kind, a, b, mark))
        t_next = t + gap(sid, c + 1)
        if t_next <= horizon:
            heapq.heappush(heap, (t_next, sid, c + 1))
    return tuple(events)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(v, w) for v in range(n) for w in range(v + 1, n)]
    return Graph.from_edges(n, [p for p in pairs if draw(st.booleans())])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_small_graphs(), st.floats(1e-12, 8.0),
       st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
       st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([2**63 + 3, 2**64 - 1])))
def test_window_matches_the_scalar_reference(g, lam, horizon, seed):
    rec = record_event_window(g, lam, seed, horizon)
    assert rec.events == _reference_window(g, lam, seed, horizon)
    assert all(type(x) is float for ev in rec.events for x in (ev[0], ev[6]))
    assert all(type(x) is int for ev in rec.events for x in ev[1:6])


def test_window_in_small_rounds_matches_the_scalar_reference(monkeypatch):
    # a cap of 5 draws splits the clocks into blocks of five rows and every
    # row into rounds of one or two rings
    monkeypatch.setattr(contact, "_ROUND_CAP", 5)
    for g, lam, seed, horizon in ((build_complete(4), 2.0, 7, 3.0),
                                  (random_connected_graph(7, 3, 2), 0.5, 2**64 - 1, 6.0),
                                  (build_complete(1), 1.0, 3, 10.0)):
        assert record_event_window(g, lam, seed, horizon).events == \
            _reference_window(g, lam, seed, horizon)


def test_window_golden():
    """sha256 of repr(events) over lam x seed, recorded from the per-stream
    heap merge this bulk window replaced."""
    graphs = {"K1": (build_complete(1), 3.0, 44,
                     "427a15ca01d27ef922021829c4b60621244e7b3665305308834c580323cd5f45"),
              "K5": (build_complete(5), 3.0, 1791,
                     "cacafe76144cc7762a9209d5647f3ee30f9182b2048fc2093beda9f2bebed15f"),
              "C(2,4)": (build_caterpillar(CaterpillarSpec(2, 4)).graph, 3.0, 5840,
                         "2696601babd4c41807bb3f42a4fe8bb1ab8248cb2aac6d632749cb77470808b4"),
              "C(10,20)": (build_caterpillar(CaterpillarSpec(10, 20)).graph, 0.5, 65735,
                           "40dc1714689f8be06f56ce81967e3c24f6006802195b20d5d349aa5fc000d6b2")}
    for name, (g, horizon, count, digest) in graphs.items():
        h = hashlib.sha256()
        total = 0
        for lam in (1e-12, 0.3, 2.0, 7.0):
            for seed in (0, 2**63 + 3, 2**64 - 1):
                events = record_event_window(g, lam, seed, horizon).events
                total += len(events)
                h.update(repr(events).encode())
        assert (name, total, h.hexdigest()) == (name, count, digest)


def test_window_draws_stay_within_the_round_cap(monkeypatch):
    largest = []

    def recording(*keys, **kwargs):
        out = real(*keys, **kwargs)
        largest.append(out.size)
        return out

    real = contact.mix64_array
    monkeypatch.setattr(contact, "mix64_array", recording)
    rec = record_event_window(build_complete(3), 1e4, 5, 1.0)
    # the marks are hashed once per infection, after the clock rounds
    assert max(largest[:-1]) <= contact._ROUND_CAP
    infections = sum(ev[3] for ev in rec.events)
    assert largest[-1] == infections
    assert 5.9e4 < infections < 6.1e4
    times = [ev[0] for ev in rec.events]
    assert times == sorted(times) and times[-1] <= 1.0


def test_pathwise_duality_identity():
    g = random_connected_graph(5, 2, 4242)
    a, b = {0, 2}, {1, 4}
    for seed in range(300):
        rec = record_event_window(g, 0.8, seed, 1.5)
        fwd_hits = len(forward_from_record(rec, a, 1.5) & b) > 0
        dual_hits = len(dual_from_record(rec, b, 1.5)[-1][1] & a) > 0
        assert fwd_hits == dual_hits


def test_duality_distributional():
    g = random_connected_graph(5, 2, 4242)
    a, b = {0, 2}, {1, 4}
    n = 6000
    fwd = sum(len(forward_from_record(record_event_window(g, 0.8, s, 1.2), a, 1.2) & b) > 0
              for s in range(n)) / n
    dual = sum(len(dual_from_record(record_event_window(g, 0.8, 10**6 + s, 1.2), b, 1.2)[-1][1] & a) > 0
               for s in range(n)) / n
    se = math.sqrt(2 * 0.25 / n)
    assert abs(fwd - dual) <= 3 * se


def test_birth_death_single_vertex():
    taus = np.array([birth_death_clique_simulate(1, 1.0, 1, seed=i).tau for i in range(20000)])
    se = taus.std(ddof=1) / math.sqrt(len(taus))
    assert abs(taus.mean() - 1.0) <= 3 * se


def test_birth_death_matches_exact_mean():
    m, lam = 30, 0.05  # lam*m = 1.5: weakly supercritical, simulable
    exact = math.exp(log_exact_clique_extinction(m, lam))
    taus = np.array([birth_death_clique_simulate(m, lam, m, seed=i).tau for i in range(4000)])
    se = taus.std(ddof=1) / math.sqrt(len(taus))
    assert abs(taus.mean() - exact) <= 3 * se


def test_birth_death_matches_full_engine():
    m, lam = 10, 0.3
    bd = np.array([birth_death_clique_simulate(m, lam, m, seed=i).tau for i in range(4000)])
    full, _ = sample_extinction_times(build_complete(m), lam, None, 8, 4000)
    se = math.sqrt(bd.var(ddof=1) / len(bd) + full.var(ddof=1) / len(full))
    assert abs(bd.mean() - full.mean()) <= 3 * se


def test_lit_snapshots_contract():
    cat = build_caterpillar(CaterpillarSpec(4, 8))
    snaps = lit_snapshots(cat, ContactConfig(0.5, t_cap=2.0, seed=1))
    assert snaps[0].time == 0.0
    assert all(snaps[0].lit)  # full start: every clique fully infected
    with pytest.raises(ValueError):
        lit_snapshots(build_complete(5), ContactConfig(1.0, seed=0))
    with pytest.raises(ValueError, match="cadence"):
        lit_snapshots(cat, ContactConfig(0.01, seed=0))


def test_lit_snapshots_stop_at_extinction():
    # a lit_snapshots run is the simulate_extinction replica with the same cfg
    cat = build_caterpillar(CaterpillarSpec(2, 4))
    cadence = 0.5
    for cfg, censored in ((ContactConfig(0.1, t_cap=500.0, seed=12), False),
                          (ContactConfig(1.0, t_cap=7.2, seed=4), True)):
        snaps = lit_snapshots(cat, cfg, cadence=cadence)
        run = simulate_extinction(cat.graph, cfg)
        assert run.censored == censored
        assert len(snaps) == math.floor(min(run.tau, cfg.t_cap) / cadence) + 1
        assert [s.time for s in snaps] == [j * cadence for j in range(len(snaps))]
    with pytest.raises(ValueError, match="cadence"):
        lit_snapshots(cat, ContactConfig(1.0, seed=0), cadence=0.0)


def test_kernel_snapshots_draw_nothing():
    cells = [(build_complete(5), 1.0), (build_caterpillar(CaterpillarSpec(2, 4)).graph, 0.3),
             (_small_rgg(), 0.05)]
    mt = _legacy_mt()
    for g, lam in cells:
        start = _start_state(g.adjacency, _healthy_flags(g.vertex_count, None))
        for cap in (math.inf, 4.0):
            for seed in range(5):
                plain = _drive(g.adjacency, start, lam, cap, mt, seed)
                snapshots = []
                recorded = _drive(g.adjacency, start, lam, cap, mt, seed,
                                  snapshots=snapshots, cadence=0.7)
                assert recorded == plain
                tau = plain[0]
                assert len(snapshots) == math.floor(tau / 0.7) + 1
                assert snapshots[0] == (0.0, frozenset(range(g.vertex_count)))
                assert all(s <= set(range(g.vertex_count)) for _, s in snapshots)


def test_lit_fraction_predicts_survival():
    # weakly supercritical caterpillar: the lit fraction a few persistence
    # times in is positively associated with surviving ten of them
    ell, m, lam = 8, 6, 0.28
    cat = build_caterpillar(CaterpillarSpec(ell, m))
    cadence = math.exp(m * math.log(lam * m) / 16)
    lit_frac, survived = [], []
    for seed in range(400):
        snaps = lit_snapshots(cat, ContactConfig(lam, t_cap=10 * cadence, seed=seed),
                              cadence=cadence)
        lit_frac.append(np.mean(snaps[3].lit) if len(snaps) > 3 else 0.0)
        survived.append(len(snaps) >= 11)
    corr = np.corrcoef(lit_frac, np.asarray(survived, float))[0, 1]
    assert corr > 0


def test_initial_validated_by_both_entry_points():
    g = build_complete(3)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            sample_extinction_times(g, 0.5, None, 1, 3, initial=[bad])
        with pytest.raises(ValueError, match="out of range"):
            simulate_extinction(g, ContactConfig(0.5, seed=1), initial=[0, bad])


def _walk_target(r, healthy, nb):
    """Reference target choice: walk the pressures in vertex order, falling
    back to the last vertex with positive pressure when r >= S."""
    acc = 0.0
    for v in range(len(nb)):
        if healthy[v] and nb[v] > 0:
            acc += nb[v]
            if r < acc:
                return v
    return max(v for v in range(len(nb)) if healthy[v] and nb[v] > 0)


def test_pick_target_matches_linear_walk():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(1, 300))
        healthy = rng.integers(0, 2, n).tolist()
        nb = (rng.integers(0, 4, n) * (rng.random(n) < 0.3)).tolist()
        if trial % 3 == 0:  # leave whole blocks without pressure
            nb[n // 3:2 * n // 3] = [0] * (2 * n // 3 - n // 3)
        block = _block_sums(healthy, nb)
        total = sum(block)
        if total == 0:
            continue
        cum = np.cumsum(np.multiply(healthy, nb))
        probes = {0.0, total - 1e-9, float(total), total + 0.5}
        probes.update(float(c) for c in cum)
        probes.update(float(np.nextafter(c, -1.0)) for c in cum if c > 0)
        probes.update((rng.random(20) * total).tolist())
        for r in sorted(probes):
            assert _pick_target(r, healthy, nb, block) == _walk_target(r, healthy, nb), (n, r)


def _small_rgg():
    cloud = rgg.sample_poisson_points(rgg.GeometryConfig(200.0, 1.5, 2), 5)
    return rgg.build_rgg(cloud, 1.5)


def test_audit_every_event_changes_nothing():
    """The kernel lets an infected vertex's infected-neighbour count go
    stale and recounts it at recovery: an audit after every event, and the
    reference, which keeps every count exact, see the plain run's replica,
    on a dense RGG too, started full and from one vertex."""
    dense = rgg.build_rgg(rgg.sample_poisson_points(rgg.GeometryConfig(400.0, 4.0, 2), 3), 4.0)
    assert dense.edge_count > 20 * dense.vertex_count and dense.adjacency[0]
    cells = [(build_complete(5), None, 1.0, math.inf),
             (build_caterpillar(CaterpillarSpec(1, 4)).graph, None, 1.0, 20.0),
             (_small_rgg(), None, 0.3, 10.0),
             (dense, None, 0.1, 4.0),
             (dense, [0], 0.1, 4.0)]
    mt = _legacy_mt()
    for g, initial, lam, cap in cells:
        start = _start_state(g.adjacency, _healthy_flags(g.vertex_count, initial))
        events = []
        for seed in range(5):
            plain = _drive(g.adjacency, start, lam, cap, mt, seed)
            audited = _drive(g.adjacency, start, lam, cap, mt, seed, audit_every=1)
            assert audited == plain
            assert _reference_kernel(g, initial, lam, cap, seed, 1.0)[0] == plain
            events.append(plain[2])
        assert min(events) > 0 and (g is not dense or max(events) > 1000)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_start_state_matches_the_per_edge_count(data):
    """Infected-neighbour counts taken down from the degrees equal a
    per-edge count up from zero, for initial sets of any size."""
    n = data.draw(st.integers(1, 70))
    p = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    pairs = np.argwhere(np.triu(np.random.default_rng(data.draw(st.integers(0, 99))).random((n, n)) < p, 1))
    g = Graph.from_edges(n, [tuple(pair) for pair in pairs.tolist()])
    k = data.draw(st.one_of(st.integers(0, n), st.sampled_from([n // 2, n // 2 + 1, (n + 1) // 2])))
    infected = data.draw(st.permutations(range(n)))[:min(k, n)]
    healthy = _healthy_flags(n, infected)
    nb = [sum(1 - healthy[w] for w in g.adjacency[v]) for v in range(n)]
    block = _block_sums(healthy, nb)
    assert _start_state(g.adjacency, healthy) == (healthy, nb, block, sorted(infected), sum(block))


def test_audit_catches_inconsistent_bookkeeping():
    k5 = build_complete(5)
    start5 = _start_state(k5.adjacency, _healthy_flags(5, [0]))
    assert start5.block == [4] and start5.pressure == 4
    edge = Graph.from_edges(70, [(0, 69)])
    start70 = _start_state(edge.adjacency, _healthy_flags(70, [0]))
    assert start70.block == [0, 1] and start70.pressure == 1
    broken = ((k5, start5._replace(pressure=3)),  # S off
              (k5, start5._replace(block=[5], pressure=5)),  # both off, consistent with each other
              (edge, start70._replace(block=[1, 0])))  # block sums off, S right
    mt = _legacy_mt()
    for g, bad in broken:
        for seed in range(3):
            with pytest.raises(RuntimeError, match="bookkeeping diverged"):
                _drive(g.adjacency, bad, 1.0, math.inf, mt, seed, audit_every=1)


def _reference_kernel(g, initial, lam, t_cap, seed, cadence):
    """The kernel as it drew before it decoded raw words: a legacy
    RandomState called once per draw, randint(0, k) even for k = 1 (which
    draws nothing), and a linear target walk.  Returns the kernel's
    (tau, censored, events) and its snapshots at `cadence`."""
    rs = np.random.RandomState(seed)
    adj = g.adjacency
    healthy = _healthy_flags(g.vertex_count, initial)
    inf_list = [v for v, h in enumerate(healthy) if not h]
    nb = [sum(1 for w in adj[v] if not healthy[w]) for v in range(g.vertex_count)]
    S = sum(h * x for h, x in zip(healthy, nb))
    horizon = t_cap if t_cap >= 0 else math.inf
    t, events, snapshots = 0.0, 0, []
    while inf_list:
        k = len(inf_list)
        total = k + lam * S
        t_next = t - math.log(1.0 - rs.random_sample()) / total
        while len(snapshots) * cadence <= min(t_next, horizon):
            snapshots.append((len(snapshots) * cadence, frozenset(inf_list)))
        if t_next > horizon:
            return (t_cap, True, events), snapshots
        t = t_next
        events += 1
        if rs.random_sample() * total < k:
            idx = int(rs.randint(0, k))
            v = inf_list[idx]
            inf_list[idx] = inf_list[-1]
            inf_list.pop()
            healthy[v] = 1
            S += nb[v]
            step = -1
        else:
            v = _walk_target(rs.random_sample() * S, healthy, nb)
            healthy[v] = 0
            inf_list.append(v)
            S -= nb[v]
            step = 1
        for w in adj[v]:
            nb[w] += step
            S += step * healthy[w]
    return (t, False, events), snapshots


def _drive(adjacency, start, lam, t_cap, mt, seed, audit_every=1_000_000, snapshots=None,
           cadence=0.0):
    """The kernel's (tau, censored, events) under a cap of `t_cap` (math.inf
    for none), tau being t_cap when censored.  With a `snapshots` list the
    run first stops at each j * cadence <= t_cap and appends
    (j * cadence, frozenset(infected)) there while any vertex is infected."""
    run = _extinction_kernel(adjacency, start, lam, mt, seed, 0.0, audit_every)
    infected, events, t = next(run)
    for j in (count() if snapshots is not None else ()):
        if not infected or j * cadence > t_cap:
            break
        infected, events, t = run.send(j * cadence)
        if infected:
            snapshots.append((j * cadence, frozenset(infected)))
    if infected:
        infected, events, t = run.send(t_cap)
    return (t_cap, True, events) if infected else (t, False, events)


def _kernel_run(g, initial, lam, t_cap, seed, cadence):
    start = _start_state(g.adjacency, _healthy_flags(g.vertex_count, initial))
    snapshots = []
    out = _drive(g.adjacency, start, lam, t_cap, _legacy_mt(), seed, snapshots=snapshots,
                 cadence=cadence)
    return out, snapshots


@st.composite
def _kernel_cells(draw):
    """k in [1, 70] infected vertices, often just above a power of two where
    randint(0, k) rejects about half its words, on graphs from no edges to
    dense ones."""
    n = draw(st.one_of(st.integers(1, 70), st.sampled_from([3, 5, 9, 17, 33, 65])))
    p = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0]))
    pairs = np.argwhere(np.triu(np.random.default_rng(draw(st.integers(0, 99))).random((n, n)) < p, 1))
    g = Graph.from_edges(n, [tuple(pair) for pair in pairs.tolist()])
    initial = draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    lam = draw(st.floats(0.01, 3.0)) / max(1, max(len(a) for a in g.adjacency))
    caps = [math.inf, 0.0, 0.5, 4.0] if p < 0.3 else [0.0, 0.5, 4.0]  # uncapped only when sparse
    t_cap = draw(st.sampled_from(caps))
    return g, initial, lam, t_cap


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_cells(), st.one_of(st.integers(0, 2**31 - 1), st.sampled_from([0, 2**31 - 1])),
       st.sampled_from([6, 7, 13, 256]))
def test_kernel_draws_the_legacy_random_state_stream(cell, seed, fetch):
    """Decoded uniforms and slots equal RandomState(seed).random_sample() and
    .randint(0, k) called in the kernel's order: the replica and every
    snapshot match.  Fetches of 6 to 13 words make events straddle refills,
    rejected slot draws included."""
    g, initial, lam, t_cap = cell
    with patch.object(contact, "_WORDS_PER_FETCH", fetch):
        got = _kernel_run(g, initial, lam, t_cap, seed, 0.05)
    assert got == _reference_kernel(g, initial, lam, t_cap, seed, 0.05)


def test_kernel_stream_across_many_refills():
    # 2486 events on K12: tens of refills at the default fetch of 256 words
    # and over a thousand at a fetch of seven
    cells = [(build_complete(12), None, 0.25, 500.0, 3),
             (Graph.from_edges(65, []), None, 1.0, math.inf, 2**31 - 1),
             (build_caterpillar(CaterpillarSpec(10, 20)).graph, range(0, 231, 6), 0.03, 5.0, 11)]
    for g, initial, lam, t_cap, seed in cells:
        expected = _reference_kernel(g, initial, lam, t_cap, seed, 0.5)
        assert _kernel_run(g, initial, lam, t_cap, seed, 0.5) == expected
        with patch.object(contact, "_WORDS_PER_FETCH", 7):
            assert _kernel_run(g, initial, lam, t_cap, seed, 0.5) == expected
    assert expected[0][2] > 100


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_cells(), st.integers(0, 2**31 - 1), st.sampled_from([7, 256]),
       st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=1, max_size=8))
def test_kernel_resumes_where_it_stopped(cell, seed, fetch, stops):
    """A run stopped at sorted times and resumed at each is, at every stop,
    the straight run to that stop: the same infected list, event count and
    last event time.  Fetches of seven words put refills, rejected slot
    draws included, between a stop and the pending event."""
    g, initial, lam, _ = cell
    start = _start_state(g.adjacency, _healthy_flags(g.vertex_count, initial))
    mt = _legacy_mt()
    stops.sort()
    with patch.object(contact, "_WORDS_PER_FETCH", fetch):
        run = _extinction_kernel(g.adjacency, start, lam, mt, seed, stops[0])
        infected, events, t = next(run)
        resumed = [(list(infected), events, t)]
        for stop in stops[1:]:
            if infected:
                infected, events, t = run.send(stop)
            resumed.append((list(infected), events, t))  # extinct: the same at every later stop
        straight = []
        for stop in stops:
            infected, events, t = next(_extinction_kernel(g.adjacency, start, lam, mt, seed, stop))
            straight.append((list(infected), events, t))
    assert resumed == straight


def test_golden_extinction_times():
    """Exact taus recorded from the numpy-array kernel this one replaced,
    with a linear target walk; any change to the stream shows here.  numpy's
    global random state is left as it was."""
    np.random.seed(2024)
    before = np.random.get_state()
    battery = battery_graphs(90210, 1, 2.0, 300.0)[0]
    assert battery.adjacency == ((3, 4), (2, 4), (1, 5), (0, 6), (0, 1), (2, 6), (3, 5))
    cloud = rgg.sample_poisson_points(rgg.GeometryConfig(60.0, 1.5, 2), 4)
    small = rgg.build_rgg(cloud, 1.5)
    assert (small.vertex_count, small.edge_count) == (53, 153)
    cat = build_caterpillar(CaterpillarSpec(2, 3)).graph
    cases = [
        ((build_complete(2), 1.0, None, 7, 3, None),
         ["1.322998910714195", "0.5766142636478195", "1.8418116223577563"], [False] * 3),
        ((battery, 2.0, None, 90210, 3, None),
         ["2.8349033282677634", "14.333864044416847", "64.28292723822568"], [False] * 3),
        ((cat, 0.5, 8.0, 5, 4, None),
         ["6.9155772781166345", "8.0", "6.308800952469881", "8.0"], [False, True, False, True]),
        ((small, 0.2, None, 12, 3, range(0, 53, 4)),
         ["16.91681764804917", "20.794444813376682", "4.827534008080795"], [False] * 3),
    ]
    for args, taus, censored in cases:
        got_taus, got_censored = sample_extinction_times(*args)
        assert [repr(float(t)) for t in got_taus] == taus
        assert got_censored.tolist() == censored
    single = simulate_extinction(small, ContactConfig(0.6, 3.0, seed=2**40 + 9), initial=[1, 2])
    assert repr(single.tau) == "0.3872899436172398" and not single.censored
    # recorded before the kernel decoded raw MT19937 words: a graph of four
    # blocks, a replica of 2486 events, and one lit-snapshot run
    c1020 = build_caterpillar(CaterpillarSpec(10, 20)).graph
    taus, censored = sample_extinction_times(c1020, 0.03, 5.0, 31, 3, range(0, 231, 6))
    assert [repr(float(t)) for t in taus] == ["5.0", "5.0", "4.030874852800522"]
    assert censored.tolist() == [True, True, False]
    assert [_replica(c1020, ContactConfig(0.03, 5.0, replica_seed(31, i)), range(0, 231, 6))[2]
            for i in range(3)] == [134, 142, 103]
    long_run = _replica(build_complete(12), ContactConfig(0.25, 500.0, seed=3), None)
    assert (repr(long_run[0]), long_run[1:]) == ("168.81846593496877", (False, 2486))
    lit = lit_snapshots(build_caterpillar(CaterpillarSpec(4, 6)), ContactConfig(0.3, 30.0, seed=8),
                        cadence=1.5)
    assert [s.time for s in lit] == [1.5 * j for j in range(17)]
    assert " ".join("".join("01"[x] for x in s.lit) for s in lit) == (
        "11111 11110 11101 11101 11111 01101 00101 01110 01110 01100 01100 01000 01000 01000 "
        "01000 01000 00000")
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
