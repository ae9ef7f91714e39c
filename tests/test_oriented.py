import hashlib
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from geocp.errors import BudgetExceededError
from geocp.percolation import (FirstPassage, _simulate_batch, arrow_open, full_interval_initial,
                               op_exact_survival, op_extinction_profile_exact,
                               op_first_passage, op_mid_density_multi, op_run,
                               op_survival_frequency)
from geocp.rng import derive_seed


def test_parity_rejection():
    with pytest.raises(ValueError, match="parity"):
        op_run(4, 0.5, {1}, 3, 0)
    with pytest.raises(ValueError):
        op_run(4, 0.5, {6}, 3, 0)
    with pytest.raises(ValueError, match="parity"):
        op_exact_survival(3, 0.5, 2, {1})


def test_full_start_is_even_sublattice():
    assert full_interval_initial(6) == frozenset({0, 2, 4, 6})
    assert full_interval_initial(5) == frozenset({0, 2, 4})


def test_q_one_alternates_forever():
    run = op_run(1, 1.0, {0}, 7, 3)
    expected = [frozenset({0}), frozenset({1})] * 4
    assert list(run.occupancy) == expected[:8]
    assert run.extinction_step is None


def test_q_zero_dies_immediately():
    run = op_run(3, 0.0, {0, 2}, 5, 3)
    assert run.occupancy[1] == frozenset()
    assert run.extinction_step == 1


def test_single_corridor_probability():
    # ell=1 from {0}: being alive at step 2 requires the two arrows
    # 0->1 then 1->0, probability q^2
    q = 0.7
    assert op_exact_survival(1, q, 2, {0}) == pytest.approx(q * q, abs=1e-12)
    hits = 0
    n = 20000
    for seed in range(n):
        run = op_run(1, q, {0}, 2, seed)
        hits += len(run.occupancy) > 2 and bool(run.occupancy[2])
    p_hat = hits / n
    se = math.sqrt(q * q * (1 - q * q) / n)
    assert abs(p_hat - q * q) <= 3 * se


def test_ell_zero_no_arrows():
    assert op_exact_survival(0, 0.9, 1, {0}) == 0.0
    assert op_exact_survival(0, 1.0, 3, {0}) == 0.0


def test_exact_survival_budget():
    # one budget for both exact routes: 10 even sites (ell <= 19), any horizon
    for ell in (20, 21):
        with pytest.raises(BudgetExceededError):
            op_exact_survival(ell, 0.5, 2, {0})
        with pytest.raises(BudgetExceededError):
            op_extinction_profile_exact(ell, 0.5)
    assert op_exact_survival(18, 0.95, 1, {0}) == pytest.approx(0.95, abs=1e-15)
    assert 0.0 < op_exact_survival(3, 0.5, 9, {0}) < 1.0


def test_exact_survival_sums_to_the_exact_mean():
    # E[extinction step] = sum over t >= 0 of P(eta_t != empty), so the two
    # exact routes must agree; the tail left out is below 1e-13 per term and
    # decays geometrically
    full = full_interval_initial(8)
    total, t = 0.0, 0
    while (s := op_exact_survival(8, 0.5, t, full)) >= 1e-13:
        total += s
        t += 1
    assert 150 < t < 250
    assert total == pytest.approx(op_extinction_profile_exact(8, 0.5).mean_steps, rel=1e-10)


def test_exact_survival_q_degenerate():
    assert op_exact_survival(4, 1.0, 8, full_interval_initial(4)) == 1.0
    assert op_exact_survival(4, 0.0, 1, full_interval_initial(4)) == 0.0


def test_first_passage():
    assert op_first_passage(5, 1.0, 0).sigma == 5
    assert op_first_passage(0, 1.0, 0).sigma == 0
    fp = op_first_passage(4, 0.0, 0)
    assert fp.censored and fp.sigma is None


def _arrow_fields(ell, q, horizon):
    """Every arrow configuration within the horizon, with its probability."""
    arrows = []
    for t in range(horizon):
        for i in range(ell + 1):
            if (i + t) % 2 == 0:
                for direction, j in ((0, i - 1), (1, i + 1)):
                    if 0 <= j <= ell:
                        arrows.append((i, t, direction))
    for bits in product((False, True), repeat=len(arrows)):
        prob = 1.0
        for b in bits:
            prob *= q if b else 1 - q
        yield dict(zip(arrows, bits)), prob


def _survival_enumeration(ell, q, t, initial):
    """Brute-force P(eta_t != empty) over every arrow configuration."""
    total = 0.0
    for present, prob in _arrow_fields(ell, q, t):
        cur = set(initial)
        for s in range(t):
            cur = {j for i in cur for direction, j in ((0, i - 1), (1, i + 1))
                   if 0 <= j <= ell and present.get((i, s, direction))}
        if cur:
            total += prob
    return total


def _first_passage_enumeration(ell, q, horizon):
    """Brute force over every arrow configuration within the horizon."""
    total = 0.0
    for present, prob in _arrow_fields(ell, q, horizon):
        cur = {0}
        hit = ell in cur
        for t in range(horizon):
            nxt = set()
            for i in cur:
                for direction, j in ((0, i - 1), (1, i + 1)):
                    if 0 <= j <= ell and present.get((i, t, direction)):
                        nxt.add(j)
            cur = nxt
            if ell in cur:
                hit = True
                break
        if hit:
            total += prob
    return total


def test_first_passage_matches_enumeration():
    ell, q = 2, 0.9
    exact = _first_passage_enumeration(ell, q, 2 * ell)
    n = 10000
    hits = sum(not op_first_passage(ell, q, seed).censored for seed in range(n))
    p_hat = hits / n
    se = math.sqrt(max(exact * (1 - exact), 1 / n) / n)
    assert abs(p_hat - exact) <= 3 * se


def test_exact_survival_matches_enumeration():
    for ell in range(3):
        evens = range(0, ell + 1, 2)
        starts = [{i for i in evens if mask >> (i // 2) & 1} for mask in range(1 << len(evens))]
        for q in (0.0, 0.3, 0.75, 1.0):
            for t in range(4):
                for init in starts:
                    assert op_exact_survival(ell, q, t, init) == pytest.approx(
                        _survival_enumeration(ell, q, t, init), abs=1e-12), (ell, q, t, init)


def _canon(run):
    return (tuple(tuple(sorted(s)) for s in run.occupancy), tuple(sorted(run.arrows.items())),
            run.extinction_step, run.track.left, run.track.right)


def test_op_run_and_first_passage_golden():
    """Outputs recorded from the site-by-site scalar-hash steppers that the
    array stepper replaced; seeds outside [0, 2^64) are masked to 64 bits."""
    run = op_run(3, 0.6, {0, 2}, 5, 11)
    assert run.occupancy == tuple(map(frozenset, [{0, 2}, {1}, {0, 2}, {1, 3}, {0, 2}, {1, 3}]))
    assert run.arrows == {
        (0, 0, 1): True, (0, 2, 1): True, (0, 4, 1): True, (1, 1, 0): True, (1, 1, 1): True,
        (1, 3, 0): True, (1, 3, 1): True, (2, 0, 0): True, (2, 0, 1): False, (2, 2, 0): True,
        (2, 2, 1): True, (2, 4, 0): True, (2, 4, 1): True, (3, 3, 0): True}
    assert run.extinction_step is None
    assert (run.track.left, run.track.right) == ((0, 1, 0, 1, 0, 1), (2, 1, 2, 3, 2, 3))
    run = op_run(6, 0.7, full_interval_initial(6), 10, -1)
    assert run.extinction_step == 7
    assert run.occupancy[-3:] == (frozenset({1, 3}), frozenset({2, 4}), frozenset())
    assert _canon(op_run(2, 0.5, {0, 2}, 4, 2**64 - 1)) == (
        ((0, 2), ()), (((0, 0, 1), False), ((2, 0, 0), False)), 1, (0, None), (2, None))
    assert op_first_passage(4, 0.7, 3) == FirstPassage(None, True)
    assert op_first_passage(5, 0.8, -7) == FirstPassage(5, False)
    seeds = [0, 1, 7, 2**63, 2**64 - 1, -1, -12345, 2**64 + 9]
    cells = []
    for ell in (0, 1, 2, 5, 9):
        for q in (0.0, 0.35, 0.7, 1.0):
            for start in (full_interval_initial(ell), {0}, {ell - ell % 2}):
                for horizon in (0, 3, 2 * ell + 3):
                    cells += [_canon(op_run(ell, q, start, horizon, seed)) for seed in seeds]
    for ell in (0, 1, 3, 8):
        for q in (0.0, 0.5, 0.8, 1.0):
            for seed in seeds:
                fp = op_first_passage(ell, q, seed)
                cells.append((fp.sigma, fp.censored))
    digest = hashlib.sha256(repr(cells).encode()).hexdigest()
    assert (len(cells), digest) == (
        1568, "112a5ab92d5abcc31da0c6ab743fc85ee32e1229266433b13c44959102391e0e")


@pytest.mark.parametrize("ell, q, start", [(0, 0.5, "full"), (1, 0.7, {0}), (4, 0.6, "full"),
                                           (7, 0.85, {2}), (12, 0.95, "full"), (5, 1.0, {4})])
def test_batch_replica_is_op_run_on_its_derived_seed(ell, q, start):
    init = full_interval_initial(ell) if start == "full" else start
    steps, replicas, seed = 2 * ell + 5, 24, 1000 + ell
    occ, extinct_at = _simulate_batch(ell, q, steps, replicas, seed, init)
    for r in range(replicas):
        run = op_run(ell, q, init, steps, derive_seed(seed, r))
        assert extinct_at[r] == (steps + 1 if run.extinction_step is None else run.extinction_step)
        assert frozenset(np.flatnonzero(occ[r]).tolist()) == run.occupancy[-1]


@pytest.mark.parametrize("entry, bad_calls", [
    pytest.param(op_run, [(-1, 0.5, (), 2, 1), (-2, 0.5, (), 2, 1), (4, 1.5, (), 2, 1),
                          (4, math.nan, (), 2, 1), (4, 0.5, (), -1, 1)], id="op_run"),
    pytest.param(op_first_passage, [(-1, 0.5, 0), (4, math.nan, 0), (4, 1.5, 0), (4, -0.1, 0)],
                 id="op_first_passage"),
    pytest.param(op_exact_survival, [(4, 0.5, -1, {0}), (-1, 0.5, 2, ()), (4, 1.5, 2, {0}),
                                     (4, math.nan, 2, {0})], id="op_exact_survival"),
    pytest.param(op_survival_frequency, [(4, 1.5, 2, 100, 1), (4, 0.5, -1, 100, 1),
                                         (-2, 0.5, 2, 100, 1), (4, math.nan, 2, 100, 1)],
                 id="op_survival_frequency"),
    pytest.param(op_mid_density_multi, [(4, 1.5, 2, [0.5], 100, 1), (4, 0.5, -3, [0.5], 100, 1),
                                        (-2, 0.5, 2, [0.5], 100, 1)], id="op_mid_density_multi"),
    pytest.param(op_extinction_profile_exact, [(-3, 0.5), (4, 1.5), (4, math.nan)],
                 id="op_extinction_profile_exact"),
])
def test_op_entry_point_rejects_bad_inputs(entry, bad_calls):
    for args in bad_calls:
        with pytest.raises(ValueError, match="ell >= 0"):
            entry(*args)


def test_simulated_survival_matches_exact():
    for ell, q in [(2, 0.3), (3, 0.6), (4, 0.9)]:
        init = full_interval_initial(ell)
        for t in (1, 4, 8):
            exact = op_exact_survival(ell, q, t, init)
            freq, se = op_survival_frequency(ell, q, t, 10000, seed=17)
            assert abs(freq - exact) <= 3 * max(se, 1e-4)


def test_arrow_field_is_shared_across_q():
    # same key, increasing retention: arrow openness is monotone
    for i, k, d in [(0, 0, 1), (2, 3, 0), (4, 1, 1)]:
        opened = [arrow_open(9, i, k, d, q) for q in (0.2, 0.5, 0.8)]
        assert opened == sorted(opened)


def test_monotone_in_q_and_initial_coupled():
    seed = 21
    full = full_interval_initial(6)
    run_small = op_run(6, 0.6, {2}, 10, seed)
    run_full = op_run(6, 0.6, full, 10, seed)
    for a, b in zip(run_small.occupancy, run_full.occupancy):
        assert a <= b
    run_lo = op_run(6, 0.4, full, 10, seed)
    run_hi = op_run(6, 0.8, full, 10, seed)
    for a, b in zip(run_lo.occupancy, run_hi.occupancy):
        assert a <= b


def test_edge_track_consistency():
    seed = 4
    full = full_interval_initial(8)
    run_full = op_run(8, 0.7, full, 12, seed)
    for occ, lo, hi in zip(run_full.occupancy, run_full.track.left, run_full.track.right):
        if occ:
            assert lo == min(occ) and hi == max(occ)
            assert all(lo <= i <= hi for i in occ)
        else:
            assert lo is None and hi is None
    run_x = op_run(8, 0.7, {4}, 12, seed)
    for (l_f, r_f), (l_x, r_x) in zip(zip(run_full.track.left, run_full.track.right),
                                      zip(run_x.track.left, run_x.track.right)):
        if l_x is not None:
            assert l_f <= l_x and r_f >= r_x


def test_mid_density_degenerate_and_monotone():
    with pytest.raises(ValueError):
        op_mid_density_multi(4, 0.5, 2, [0.5], 0, 1)
    # ell=2, beta=1, q=1: window [0,2] holds both even sites, threshold 1.5
    est = op_mid_density_multi(2, 1.0, 4, [1.0], 200, 5)[0]
    assert est.estimate == 1.0
    ests = op_mid_density_multi(20, 0.95, 64, [0.3, 0.5, 0.7], 1500, 3)
    vals = [e.estimate for e in ests]
    assert vals == sorted(vals, reverse=True)  # coupled batch, shrinking event
    assert all(0.0 <= e.wilson[0] <= e.wilson[1] <= 1.0 for e in ests)


def test_extinction_profile_exact_vs_simulation():
    prof = op_extinction_profile_exact(4, 0.95)
    assert prof.median_steps / prof.mean_steps == pytest.approx(math.log(2), rel=0.01)
    _, steps = _simulate_batch(4, 0.95, 300_000, 200, 5, full_interval_initial(4))
    assert int((steps > 300_000).sum()) == 0
    sim_mean = steps.mean()
    se = steps.std(ddof=1) / math.sqrt(len(steps))
    assert abs(sim_mean - prof.mean_steps) <= 3 * se


def test_extinction_profile_budget_and_degenerate():
    with pytest.raises(BudgetExceededError):
        op_extinction_profile_exact(40, 0.9)
    assert op_extinction_profile_exact(4, 1.0).mean_steps == math.inf
    assert op_extinction_profile_exact(0, 0.9).mean_steps == pytest.approx(1.0)


def _op_fraction_mean(ell: int, q: Fraction) -> Fraction:
    """Mean extinction step from the full even start, by exact rational
    elimination over every nonempty (parity, occupied set) state.  Each site
    of the next parity opens with probability 1 - (1 - q)^(occupied parents)."""
    states = [(p, frozenset(c)) for p in (0, 1) for r in range(1, ell + 2)
              for c in combinations(range(p, ell + 1, 2), r)]
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    rows = [[Fraction(int(i == j)) for j in range(size)] + [Fraction(1)] for i in range(size)]
    for (p, occ), i in index.items():
        targets = sorted({j for s in occ for j in (s - 1, s + 1) if 0 <= j <= ell})
        opens = [1 - (1 - q) ** ((j - 1 in occ) + (j + 1 in occ)) for j in targets]
        for keep in product((False, True), repeat=len(targets)):
            nxt = frozenset(j for j, k in zip(targets, keep) if k)
            if nxt:
                pr = math.prod((o if k else 1 - o for o, k in zip(opens, keep)), start=Fraction(1))
                rows[i][index[(1 - p, nxt)]] -= pr
    for col in range(size):  # Gauss-Jordan; I - P is a nonsingular M-matrix
        pivot = rows[col]
        inv = 1 / pivot[col]
        pivot[:] = [x * inv for x in pivot]
        for r in range(size):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], pivot)]
    return rows[index[(0, frozenset(range(0, ell + 1, 2)))]][-1]


@pytest.mark.parametrize("ell", range(9))
def test_extinction_profile_mean_matches_rational_solve(ell):
    exact = _op_fraction_mean(ell, Fraction(7, 10))
    assert op_extinction_profile_exact(ell, 0.7).mean_steps == pytest.approx(float(exact), rel=1e-12)


def test_extinction_profile_mean_in_the_metastable_regime():
    # 1.053e16 is the ell = 16, q = 0.95 mean from a 60-digit solve
    m16 = op_extinction_profile_exact(16, 0.95).mean_steps
    assert m16 == pytest.approx(1.053e16, rel=1e-3)
    m18 = op_extinction_profile_exact(18, 0.95).mean_steps
    assert m16 < m18 < math.inf
