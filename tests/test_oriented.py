import hashlib
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from geocp.errors import BudgetExceededError
from geocp.percolation import (FirstPassage, _class_transition, _gth_last_mean, _simulate_batch,
                               _transfer_matrices,
                               full_interval_initial, op_exact_survival, op_extinction_profile_exact,
                               op_first_passage, op_run, op_survival_frequency)
from geocp.rng import derive_seed
from percolation_reference import arrow_open, gth_last_mean as unblocked_gth_mean


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


def _edges(run):
    """The leftmost and rightmost occupied sites of each step, None once extinct."""
    return (tuple(min(s) if s else None for s in run.occupancy),
            tuple(max(s) if s else None for s in run.occupancy))


def _canon(run):
    return (tuple(tuple(sorted(s)) for s in run.occupancy), tuple(sorted(run.arrows.items())),
            run.extinction_step, *_edges(run))


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
    assert _edges(run) == ((0, 1, 0, 1, 0, 1), (2, 1, 2, 3, 2, 3))
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
                          (4, math.nan, (), 2, 1), (4, 0.5, (), -1, 1), (4, 0.6, [0], 2.5, 1),
                          (4.0, 0.6, [0], 2, 1), (True, 0.6, [0], 2, 1)], id="op_run"),
    pytest.param(op_first_passage, [(-1, 0.5, 0), (4, math.nan, 0), (4, 1.5, 0), (4, -0.1, 0),
                                    (2.0, 0.6, 1)], id="op_first_passage"),
    pytest.param(op_exact_survival, [(4, 0.5, -1, {0}), (-1, 0.5, 2, ()), (4, 1.5, 2, {0}),
                                     (4, math.nan, 2, {0}), (4, 0.6, 2.5, [0]), (4, 0.6, False, [0])],
                 id="op_exact_survival"),
    pytest.param(op_survival_frequency, [(4, 1.5, 2, 100, 1), (4, 0.5, -1, 100, 1),
                                         (-2, 0.5, 2, 100, 1), (4, math.nan, 2, 100, 1),
                                         (4, 0.6, 2.5, 10, 1), (4.0, 0.6, 2, 10, 1)],
                 id="op_survival_frequency"),
    pytest.param(op_extinction_profile_exact, [(-3, 0.5), (4, 1.5), (4, math.nan), (4.5, 0.6),
                                               (4.0, 0.6)], id="op_extinction_profile_exact"),
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


def test_op_run_arrows_match_the_scalar_flag():
    # every arrow the stepper evaluated is the scalar reference's flag
    for seed, q in ((3, 0.5), (2**64 - 1, 0.8), (-5, 0.65)):
        run = op_run(9, q, full_interval_initial(9), 14, seed)
        assert len(run.arrows) > 20
        assert all(v == arrow_open(seed, *key, q) for key, v in run.arrows.items())


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
    run_x = op_run(8, 0.7, {4}, 12, seed)
    for (l_f, r_f), (l_x, r_x) in zip(zip(*_edges(run_full)), zip(*_edges(run_x))):
        if l_x is not None:
            assert l_f <= l_x and r_f >= r_x


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


_TRANSFER_QS = (0.0, 1 / 3, 0.3, 0.5, 0.6447, 0.7, 0.9, 0.95, 0.99, 1.0)

# sha256 of the float64 bytes of every class transfer matrix of [0, ell],
# q over _TRANSFER_QS and even -> odd before odd -> even, recorded from the
# subset-by-subset construction
_TRANSFER_DIGESTS = [
    "eb38c1dd920323ac", "285b66d79c08fb3e", "f83c6cf9e85e4d8d", "b960543539d3fc97",
    "d89795393272471a", "355da0efd6a167cb", "d338b1062d45902f", "36a8fb76a1347812",
    "208f5154eb863a52", "735eb65f1ab6f582", "9159ce4cf7856bde", "11605f3a84afef0c",
    "e1a7179d31e9cd77", "6281fc38135576c1", "228d1ecae4c997c4", "6028993e907f296f",
    "4dfc267d062af34a", "506031b6caab3f26", "05525608e0eb0a8d", "f71f9772df4e5b78",
]


def test_class_transition_golden():
    digests = []
    for ell in range(20):
        evens, odds = list(range(0, ell + 1, 2)), list(range(1, ell + 1, 2))
        h = hashlib.sha256()
        for q in _TRANSFER_QS:
            for src, dst in ((evens, odds), (odds, evens)):
                T = _class_transition(src, dst, q)
                assert T.shape == (1 << len(src), 1 << len(dst))
                h.update(np.ascontiguousarray(T, dtype="<f8").tobytes())
        digests.append(h.hexdigest()[:16])
    assert digests == _TRANSFER_DIGESTS


def test_extinction_profile_workload_cells_golden():
    # the exact profiles of the benchmark's percolation workload (q = 0.7),
    # recorded from the panel-blocked GTH; the means read before it, from
    # one outer product per censored state, lie within 8 ulp
    profiles = [op_extinction_profile_exact(ell, 0.7) for ell in (8, 10, 12, 14, 16)]
    assert [(p.mean_steps, p.median_steps) for p in profiles] == [
        (89.76907945483552, 64.0), (156.16732554258746, 111.0), (259.2106573288761, 183.0),
        (417.29940594660695, 293.0), (658.1278308909252, 461.0)]
    unblocked_means = [89.76907945483553, 156.16732554258752, 259.2106573288761,
                       417.29940594660707, 658.1278308909253]
    for p, old in zip(profiles, unblocked_means):
        assert abs(p.mean_steps - old) <= 8 * math.ulp(old)


def _gth_inputs(ell, q):
    """The chain, exits and rewards that op_extinction_profile_exact hands
    to _gth_last_mean."""
    A, B = _transfer_matrices(ell, q)
    AB = A @ B
    return AB[1:, 1:], AB[1:, 0], 1.0 + A[1:, 1:].sum(axis=1)


@pytest.mark.parametrize("q", [0.5, 0.7, 0.95, 0.99])
def test_blocked_gth_mean_matches_the_unblocked_elimination(q):
    # the panels sum each block's products in another order; both orders
    # add nonnegative terms, so the means agree to a few ulp (3 at most
    # over these cells when recorded)
    for ell in range(1, 20):
        chain = _gth_inputs(ell, q)
        blocked = _gth_last_mean(*chain)
        unblocked = unblocked_gth_mean(*chain)
        assert abs(blocked - unblocked) <= 8 * math.ulp(unblocked), (ell, q)


def test_exact_profile_bytes_do_not_depend_on_the_blas_thread_count():
    code = ("from geocp.percolation import op_extinction_profile_exact as f\n"
            "for ell, q in ((16, 0.7), (16, 0.95), (19, 0.89), (19, 0.99)):\n"
            "    p = f(ell, q)\n"
            "    print(p.mean_steps.hex(), p.median_steps.hex())\n")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=300)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].split()) == 8


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
def test_extinction_profile_median_is_the_first_step_at_or_below_half(q):
    # the survival is non-increasing in t, so s(m - 1) > 1/2 >= s(m) makes m
    # the smallest such step; at q = 0.9 the medians reach 350 033 steps,
    # far past where the profile switches to its geometric tail
    for ell in range(9):
        m = op_extinction_profile_exact(ell, q).median_steps
        assert m == int(m) >= 1
        full = full_interval_initial(ell)
        assert op_exact_survival(ell, q, int(m) - 1, full) > 0.5 >= op_exact_survival(ell, q, int(m), full)


@pytest.mark.parametrize("ell, q", [(11, 0.95), (12, 0.95), (15, 0.93)])
def test_extinction_profile_median_in_the_metastable_regime(ell, q):
    # with the law quasi-stationary long before the median, the survival is
    # exp(-t / mean) up to corrections of the relaxation time over the mean
    prof = op_extinction_profile_exact(ell, q)
    assert prof.mean_steps > 1e10
    assert prof.median_steps == pytest.approx(prof.mean_steps * math.log(2), rel=1e-8)


def _matmul(X, Y):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]


def _decimal_survival(ell: int, q: float, t: int) -> Decimal:
    """P(eta_t != empty) from the full even start in 40-digit decimals: the
    one-step matrices between the subsets of each parity class, built
    afresh, and the two-step matrix raised to t // 2 by repeated squaring."""
    with localcontext() as ctx:
        ctx.prec = 40
        q = Decimal(q)
        classes = [[frozenset(c) for r in range(ell + 2) for c in combinations(range(p, ell + 1, 2), r)]
                   for p in (0, 1)]

        def step(p):
            rows = []
            for occ in classes[p]:
                opens = {j: 1 - (1 - q) ** ((j - 1 in occ) + (j + 1 in occ))
                         for j in range(1 - p, ell + 1, 2)}
                rows.append([math.prod((o if j in nxt else 1 - o for j, o in opens.items()),
                                       start=Decimal(1)) for nxt in classes[1 - p]])
            return rows

        even_to_odd = step(0)
        power, k = _matmul(even_to_odd, step(1)), t // 2
        dist = [[Decimal(int(occ == classes[0][-1])) for occ in classes[0]]]
        while k:
            if k & 1:
                dist = _matmul(dist, power)
            power, k = _matmul(power, power), k >> 1
        if t % 2:
            dist = _matmul(dist, even_to_odd)
        return sum(dist[0][1:])  # entry 0 is the empty set


def test_extinction_profile_median_matches_a_40_digit_survival():
    # the median of 424 867 821 steps lies far beyond where a survival
    # carried step by step in doubles is good to one step
    for t in (0, 1, 2, 7):
        assert float(_decimal_survival(5, 0.99, t)) == pytest.approx(
            op_exact_survival(5, 0.99, t, full_interval_initial(5)), abs=1e-15)
    m = int(op_extinction_profile_exact(5, 0.99).median_steps)
    assert _decimal_survival(5, 0.99, m - 1) > Decimal("0.5") >= _decimal_survival(5, 0.99, m)


def test_extinction_profile_terminates_across_q():
    cells = [(ell, _TRANSFER_QS) for ell in range(12)] + [(19, (0.3, 0.75, 0.89, 0.99))]
    for ell, qs in cells:
        medians = []
        for q in sorted(qs):
            prof = op_extinction_profile_exact(ell, q)
            if q == 1.0:
                assert prof.median_steps == prof.mean_steps == math.inf
                continue
            # P(T >= m) <= mean / m and P(T >= m) > 1/2 give m < 2 mean
            assert prof.median_steps == int(prof.median_steps)
            assert 1 <= prof.median_steps < 2 * prof.mean_steps
            medians.append(prof.median_steps)
        assert medians == sorted(medians)  # the survival is monotone in q
        if 0.0 in qs:
            assert medians[0] == 1.0
