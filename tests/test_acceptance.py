"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Criterion 4 has two halves: the complete-graph half runs on the exact
spectral extinction-time sampler; the caterpillar half demands uncensored
extinction times whose expectation provably exceeds 1e16 time units (the
package's own clique oracle bounds it from below), which no simulation can
deliver, so that half is implemented faithfully and marked as an expected
failure rather than weakened.
"""

import math
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from geocp.bounds import log_extinction_time_bound
from geocp.contact import (ContactConfig, record_event_window, dual_from_record,
                           forward_from_record, sample_extinction_times,
                           simulate_coupled)
from geocp.exact import (exact_expected_extinction_ctmc, log_exact_clique_extinction,
                         sample_clique_extinction_times)
from geocp.experiments import ExperimentConfig, battery_graphs, parse_config, run_experiment
from geocp.graphs import CaterpillarSpec, build_caterpillar, build_complete, random_connected_graph
from geocp.percolation import (find_long_open_path, full_interval_initial,
                               longest_open_path_exact, op_exact_survival,
                               op_extinction_profile_exact, sample_site_grid,
                               op_survival_frequency)
from geocp.rgg import PointCloud, build_rgg
from geocp.stats import fit_loglinear, ks_to_exp1
from graph_helpers import build_rgg_bruteforce, early_extinction_floor
from percolation_reference import path_is_valid

SUITE_DIR = Path(__file__).resolve().parents[1] / "configs" / "suite"


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_ctmc_oracle_battery():
    """20 random connected graphs (<=7 vertices) x lam in {0.5,1,2}: the
    simulated mean of 1e4 replicas sits within 3 SE of the exact jump-chain
    solve for every cell, inside five minutes."""
    t0 = time.monotonic()
    cfg = ExperimentConfig("oracle-battery", 90210,
                           contact={"lam": None, "t_cap": None, "replicas": 10_000},
                           options={"graphs": "20", "lams": "0.5 1.0 2.0",
                                    "mean_cap": "300"})
    table = run_experiment(cfg, workers=4)
    elapsed = time.monotonic() - t0
    ok = table.summary["all_within_3se"] and elapsed < 300
    _report("C01 ctmc-oracle-battery",
            ok, f"60 cells, max|z|={table.summary['max_abs_z']:.2f}, {elapsed:.0f}s")


def test_c02_clique_closed_forms():
    """exact_clique mean is 2.0 at (2,1) and 1.0 at (1,.) to 12 digits;
    simulation on the 2-clique agrees within 3 SE over 1e5 replicas."""
    v2 = math.exp(log_exact_clique_extinction(2, 1.0))
    ok12 = abs(v2 - 2.0) <= 1e-12
    ok1 = all(abs(math.exp(log_exact_clique_extinction(1, lam)) - 1.0) <= 1e-12
              for lam in (0.25, 1.0, 4.0))
    taus, cens = sample_extinction_times(build_complete(2), 1.0, None, 7, 100_000)
    se = taus.std(ddof=1) / math.sqrt(len(taus))
    z = (taus.mean() - 2.0) / se
    ok = ok12 and ok1 and not cens.any() and abs(z) <= 3
    _report("C02 clique-closed-forms", ok,
            f"exact(2,1)={v2!r}, sim mean={taus.mean():.4f} (z={z:+.2f})")


def test_c03_scaling_proxy_exact():
    """Exact log mean extinction on m-cliques against m*log(m), m=50..500:
    positive slope with r^2 >= 0.99, no Monte Carlo, under a minute."""
    t0 = time.monotonic()
    cfg = ExperimentConfig("clique-scaling", 1, contact={"lam": 1.0},
                           options={"sizes": " ".join(str(m) for m in range(50, 501, 50))})
    table = run_experiment(cfg)
    elapsed = time.monotonic() - t0
    ok = table.summary["slope"] > 0 and table.summary["r_squared"] >= 0.99 and elapsed < 60
    _report("C03 scaling-proxy", ok,
            f"slope={table.summary['slope']:.4f}, r2={table.summary['r_squared']:.5f}, {elapsed:.1f}s")


def test_c04a_exp1_metastability_clique():
    """300 uncensored extinction times of the 30-clique at lam=0.5 (exact
    spectral sampling; the mean is ~5e21 time units, far beyond any event
    loop), normalized by their own mean: KS distance to Exp(1) <= 0.10."""
    t0 = time.monotonic()
    taus = sample_clique_extinction_times(30, 0.5, 300, seed=424242)
    ks = ks_to_exp1(taus / taus.mean())
    elapsed = time.monotonic() - t0
    ok = ks <= 0.10 and elapsed < 1800
    _report("C04a exp1-clique", ok, f"KS={ks:.4f} on 300 exact draws, {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason=(
    "caterpillar C(10,20) at lam=1 contains a 20-clique whose exact mean "
    "extinction time is 1.8e16 time units (this package's own oracle, in "
    "log space); 300 uncensored replicas cannot be produced by any "
    "event-driven simulation in practical time, and unlike the clique case "
    "no exact sampling reduction exists for the caterpillar; the check is "
    "kept faithful and recorded as an expected failure rather than weakened"))
def test_c04b_exp1_metastability_caterpillar():
    """Same Exp(1) gate on C(10,20) at lam=1: demands 300 uncensored
    extinction times; every replica censors at any feasible horizon."""
    lower_bound = math.exp(min(700.0, log_exact_clique_extinction(20, 1.0)))
    cat = build_caterpillar(CaterpillarSpec(10, 20))
    taus, censored = sample_extinction_times(cat.graph, 1.0, t_cap=25.0,
                                             master_seed=11, replicas=300)
    uncensored = taus[~censored]
    print(f"[FAIL] C04b exp1-caterpillar: {len(uncensored)}/300 uncensored at "
          f"t_cap=25; exact mean >= E[tau(K20,1)] = {lower_bound:.3e}")
    assert len(uncensored) == 300, "need 300 uncensored extinction times"
    ks = ks_to_exp1(uncensored / uncensored.mean())
    assert ks <= 0.10


def test_c05_upper_bound_conformance():
    """Every battery graph obeys E[tau] <= 2F(|V|,|E|) (checked in log
    space), and the one-second extinction frequency clears the closed-form
    floor with 3-SE slack on five graphs with 1e5 replicas."""
    graphs = battery_graphs(90210, 20, 2.0, 300.0)
    worst_margin = math.inf
    for g in graphs:
        for lam in (0.5, 1.0, 2.0):
            log_mean = math.log(exact_expected_extinction_ctmc(g, lam))
            log_cap = math.log(2.0) + log_extinction_time_bound(g.vertex_count, g.edge_count, lam)
            worst_margin = min(worst_margin, log_cap - log_mean)
    ok_bound = worst_margin >= 0
    floor_ok = True
    details = []
    for gi, g in enumerate(graphs[:5]):
        lam = 1.0
        floor = early_extinction_floor(g.vertex_count, g.edge_count, lam)
        taus, censored = sample_extinction_times(g, lam, t_cap=1.0,
                                                 master_seed=2222 + gi, replicas=100_000)
        p_hat = float((~censored).mean())
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-10) / len(taus))
        floor_ok = floor_ok and (p_hat >= floor - 3 * se)
        details.append(f"{p_hat:.4f}>={floor:.4f}")
    ok = ok_bound and floor_ok
    _report("C05 upper-bound-conformance", ok,
            f"min log margin {worst_margin:.2f}; floors {'; '.join(details)}")


def test_c06_oriented_percolation():
    """Simulated survival within 3 SE of the exact transfer oracle on every
    (ell<=4, t<=8, q) cell, degenerate q cells exact, and the exact median
    extinction step grows log-linearly over ell in {4,8,12,16} at q=0.95."""
    worst = 0.0
    ok = True
    for ell, q in product((1, 2, 3, 4), (0.3, 0.6, 0.9)):
        init = full_interval_initial(ell)
        for t in range(1, 9):
            exact = op_exact_survival(ell, q, t, init)
            freq, se = op_survival_frequency(ell, q, t, 10_000, seed=18, initial=init)
            if se == 0.0:
                ok = ok and freq == exact
            else:
                z = abs(freq - exact) / se
                worst = max(worst, z)
                ok = ok and z <= 3.0
    f1, _ = op_survival_frequency(4, 1.0, 8, 2_000, seed=5)
    f0, _ = op_survival_frequency(4, 0.0, 1, 2_000, seed=5)
    ok = ok and f1 == 1.0 and f0 == 0.0
    medians = [op_extinction_profile_exact(ell, 0.95).median_steps for ell in (4, 8, 12, 16)]
    increasing = all(a < b for a, b in zip(medians, medians[1:]))
    slope, _, _ = fit_loglinear([4.0, 8.0, 12.0, 16.0], [math.log(x) for x in medians])
    ok = ok and increasing and slope > 0
    _report("C06 oriented-percolation", ok,
            f"max|z|={worst:.2f}; medians {['%.3g' % m for m in medians]}, slope {slope:.2f}")


def test_c07_rgg_exactness():
    """Bucket-grid construction equals the quadratic reference on 50
    instances with up to 300 points, as exact set equality."""
    rng = np.random.default_rng(777)
    checked = 0
    for trial in range(50):
        d = 1 + trial % 3
        n = int(rng.integers(10, 301))
        side = float(rng.uniform(2.0, 10.0))
        pts = rng.random((n, d)) * side
        cloud = PointCloud(pts, side)
        radius = float(rng.uniform(0.3, 2.5))
        if build_rgg(cloud, radius).adjacency != build_rgg_bruteforce(cloud, radius).adjacency:
            _report("C07 rgg-exactness", False, f"mismatch at trial {trial}")
        checked += 1
    _report("C07 rgg-exactness", checked == 50, f"{checked}/50 instances equal")


def test_c08_long_path_trend():
    """Heuristic path length grows near-linearly in the site count at
    p=0.75 (slope >= 0.9 of log L against log n^2), and never exceeds the
    exact optimum on small oracle instances."""
    lengths = []
    for n in (16, 32, 64, 128):
        grid = sample_site_grid((n, n), 0.75, 1234)
        path = find_long_open_path(grid)
        assert path_is_valid(grid, path)
        lengths.append(len(path))
    slope, _, r2 = fit_loglinear([math.log(n * n) for n in (16, 32, 64, 128)],
                                 [math.log(x) for x in lengths])
    bounded = True
    for s in range(30):
        dims = (4, 4) if s % 2 else (5, 5)
        grid = sample_site_grid(dims, 0.45 + 0.05 * (s % 3), s)
        if int(grid.open.sum()) > 36:
            continue
        bounded = bounded and len(find_long_open_path(grid)) <= longest_open_path_exact(grid)
    ok = slope >= 0.9 and bounded
    _report("C08 long-path-trend", ok,
            f"lengths {lengths}, slope {slope:.3f} (r2 {r2:.4f}), heuristic<=exact: {bounded}")


def test_c09_embedding_success():
    """Caterpillar-of-cliques embedding in uniform clouds (n=1e4, d=2)
    succeeds with spine >= 2 and full-size blocks >= mu/2 in at least 90%
    of 20 seeds for each connection volume in {50, 100, 200}."""
    cfg = ExperimentConfig("embedding", 31337,
                           geometry={"n": 10_000.0, "r": None, "d": 2, "b": 1.0, "B": 1.0},
                           options={"r_pow_d_values": "50 100 200", "seeds_per_cell": "20"})
    table = run_experiment(cfg, workers=4)
    cells = table.summary["cells"]
    rates = {k: v["success_rate"] for k, v in cells.items()}
    ok = all(rate >= 0.9 for rate in rates.values())
    _report("C09 embedding-success", ok,
            "; ".join(f"R^d={k}: {v:.2f}" for k, v in sorted(rates.items())))


def test_c10_d1_regimes():
    """Interval-graph regimes at n=1e5: connected in >=95% of 20 seeds at
    radius 4*ln n; largest component at most n^(2/3) in >=90% of 20 seeds
    at radius 0.1*ln n."""
    cfg = ExperimentConfig("d1-regimes", 555,
                           geometry={"n": 100_000.0, "r": None, "d": 1, "b": 1.0, "B": 1.0},
                           options={"seeds_per_cell": "20"})
    table = run_experiment(cfg, workers=4)
    ok = (table.summary["connected_rate"] >= 0.95
          and table.summary["small_component_rate"] >= 0.90)
    _report("C10 d1-regimes", ok,
            f"connected {table.summary['connected_rate']:.2f}, "
            f"small-component {table.summary['small_component_rate']:.2f}")


def test_c11_coupling_duality():
    """The online containment assertion stays silent over 1e3 coupled runs,
    and forward/dual hit probabilities agree within 3 combined SE on
    5-vertex graphs."""
    graphs = [build_complete(5), random_connected_graph(5, 2, 4242),
              random_connected_graph(5, 1, 99)]
    for i in range(1000):
        g = graphs[i % len(graphs)]
        simulate_coupled(g, ContactConfig(0.6, t_cap=2.0, seed=i), [0, 1], [0, 1, 2, 3])
    worst = 0.0
    n = 10_000
    for g, (a, b) in [(graphs[1], ({0, 2}, {1, 4})), (graphs[0], ({0}, {3, 4}))]:
        fwd = sum(len(forward_from_record(record_event_window(g, 0.8, s, 1.2), a, 1.2) & b) > 0
                  for s in range(n)) / n
        dual = sum(
            len(dual_from_record(record_event_window(g, 0.8, 5_000_000 + s, 1.2), b, 1.2)[-1][1] & a) > 0
            for s in range(n)) / n
        se = math.sqrt((fwd * (1 - fwd) + dual * (1 - dual)) / n)
        worst = max(worst, abs(fwd - dual) / se)
    ok = worst <= 3.0
    _report("C11 coupling-duality", ok,
            f"1000 coupled runs silent; duality max|z|={worst:.2f}")


def test_c12_determinism(tmp_path):
    """The shipped experiment suite produces byte-identical CSV and JSON
    outputs across reruns and across worker counts 1 and 4."""
    configs = sorted(SUITE_DIR.glob("*.cfg"))
    assert len(configs) == 7
    out1 = tmp_path / "w1"
    out4 = tmp_path / "w4"
    for cfg_path in configs:
        cfg = parse_config(cfg_path)
        run_experiment(cfg, out_dir=out1, workers=1)
        run_experiment(cfg, out_dir=out4, workers=4)
    mismatches = []
    files1 = sorted(out1.iterdir())
    for f1 in files1:
        f4 = out4 / f1.name
        if not f4.exists() or f1.read_bytes() != f4.read_bytes():
            mismatches.append(f1.name)
    ok = not mismatches and len(files1) == 14
    _report("C12 determinism", ok,
            f"{len(files1)} files byte-identical at workers 1 vs 4"
            + (f"; mismatches: {mismatches}" if mismatches else ""))
