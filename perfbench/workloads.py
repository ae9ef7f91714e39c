"""The benchmark's four workloads.

A workload is built from the run's seed (its set-up), then runs rounds.
Every round makes the same calls into geocp, through `call(span, fn,
*args)`, on inputs drawn for that round from (seed, round), and returns
what the calls produced; `check` then holds those outputs against values
computed apart from geocp (see `oracles`) or against properties the
method must have.  Sizes are fixed here, so a round is fixed work.
ROUND_S is a round's wall time on the reference host (see the README); a
run makes ceil(seconds / ROUND_S) rounds.

Every statistical check runs at false-alarm probability ALPHA; a run
makes at most ~200 of them, so a correct program fails a run with
probability below ~2e-5 at any seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from geocp import contact, exact, experiments, graphs, percolation, rgg
from geocp.rng import TAG_ARROW, uniform_from_key

import checks
import oracles

ALPHA = 1e-7


def sub_seed(*keys) -> int:
    """63-bit seed for the key tuple, independent of geocp's own mixing."""
    digest = hashlib.blake2b(repr(keys).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def _tau_counts(result):
    taus, _censored = result
    return {"replicas": len(taus), "sim_time": float(taus.sum())}


def _site_steps(run):
    """Occupied (site, step) pairs whose arrows an op_run evaluated."""
    return {"site_steps": sum(len(s) for s in run.occupancy[:-1])}


class SmallGraphOracle:
    """The C01 path: tiny random graphs against the exact jump-chain solve,
    10-12-vertex CTMC solves, and the clique samplers."""

    name = "small-graph-oracle"
    ROUND_S = 4.7
    # the C01 battery of tests/test_acceptance.py, the same for every run
    # seed: its graphs set most of the round's cost, and a battery drawn
    # per seed varied that cost by a third between seeds; the seed draws
    # the replica streams
    BATTERY_SEED = 90210
    LAMS = (0.5, 1.0, 2.0)
    GRAPHS = 20
    MEAN_CAP = 300.0
    REPLICAS = 60
    LARGE_LAM = 1.0
    SPECTRAL = ((11, 1.0, 20_000), (30, 0.1, 20_000))  # (m, lam, count)
    BIRTH_DEATH = ((11, 0.2, 200), (20, 0.05, 200))

    def __init__(self, seed: int):
        self.seed = seed
        self.graphs = experiments.battery_graphs(self.BATTERY_SEED, self.GRAPHS, max(self.LAMS), self.MEAN_CAP)
        self.large = [("C(1,4)", graphs.build_caterpillar(graphs.CaterpillarSpec(1, 4)).graph),
                      ("C(2,3)", graphs.build_caterpillar(graphs.CaterpillarSpec(2, 3)).graph),
                      ("K11", graphs.build_complete(11))]
        self._moments = {}

    def run_round(self, r: int, call) -> dict:
        cells = []
        for gi, g in enumerate(self.graphs):
            states = {"states": (1 << g.vertex_count) - 1}
            for lam in self.LAMS:
                mean = call("exact.ctmc", exact.exact_expected_extinction_ctmc, g, lam,
                            counts=lambda _, s=states: s)
                taus, cens = call("contact.sample_extinction_times", contact.sample_extinction_times,
                                  g, lam, None, sub_seed(self.seed, r, gi, lam), self.REPLICAS,
                                  counts=_tau_counts)
                cells.append((gi, lam, mean, taus, cens))
        large = []
        for label, g in self.large:
            span = "exact.ctmc_v12" if g.vertex_count == 12 else "exact.ctmc"
            large.append((label, call(span, exact.exact_expected_extinction_ctmc, g, self.LARGE_LAM,
                                      cap=12, counts=lambda _, n=g.vertex_count: {"states": (1 << n) - 1})))
        spectral = [call("exact.sample_clique_extinction_times", exact.sample_clique_extinction_times,
                         m, lam, count, sub_seed(self.seed, r, "spectral", m))
                    for m, lam, count in self.SPECTRAL]
        birth_death = [[call("contact.birth_death_clique_simulate", contact.birth_death_clique_simulate,
                             m, lam, m, sub_seed(self.seed, r, "bd", m, i))
                        for i in range(count)]
                       for m, lam, count in self.BIRTH_DEATH]
        return {"cells": cells, "large": large, "spectral": spectral, "birth_death": birth_death}

    def _graph_moments(self, gi, lam):
        if (gi, lam) not in self._moments:
            self._moments[gi, lam] = oracles.graph_moments(self.graphs[gi].adjacency, lam)
        return self._moments[gi, lam]

    def check(self, out: dict) -> list[str]:
        fails = []
        scores = []
        for gi, lam, mean, taus, cens in out["cells"]:
            name = f"graph {gi} ({self.graphs[gi].vertex_count} vertices) lam={lam}"
            m1, m2 = self._graph_moments(gi, lam)
            fails += checks.close(f"{name} CTMC mean", mean, m1, 1e-9)
            if cens.any():
                fails.append(f"{name}: censored replicas without a t_cap")
            fails += checks.mean_matches(f"{name} simulated mean", taus, m1, m2, ALPHA)
            scores.append(checks.standard_score(taus, m1, m2))
        fails += checks.pooled_score("battery", scores, ALPHA)
        own = {"C(1,4)": oracles.caterpillar_moments(1, 4, self.LARGE_LAM)[0],
               "C(2,3)": oracles.caterpillar_moments(2, 3, self.LARGE_LAM)[0],
               "K11": oracles.clique_moments(11, self.LARGE_LAM)[0]}
        for label, mean in out["large"]:
            fails += checks.close(f"{label} CTMC mean", mean, own[label], 1e-8)
        fails += checks.close("K11 CTMC mean against log_exact_clique_extinction", dict(out["large"])["K11"],
                              float(np.exp(exact.log_exact_clique_extinction(11, self.LARGE_LAM))), 1e-8)
        for (m, lam, _), sample in zip(self.SPECTRAL, out["spectral"]):
            m1, m2 = oracles.clique_moments(m, lam)
            fails += checks.mean_matches(f"spectral K{m} lam={lam}", sample, m1, m2, ALPHA)
        for (m, lam, _), runs in zip(self.BIRTH_DEATH, out["birth_death"]):
            m1, m2 = oracles.clique_moments(m, lam)
            if any(run.censored for run in runs):
                fails.append(f"birth-death K{m}: censored without a t_cap")
            fails += checks.mean_matches(f"birth-death K{m} lam={lam}",
                                         np.array([run.tau for run in runs]), m1, m2, ALPHA)
        return fails


class RggExtinction:
    """The paper's experiment: fresh Poisson clouds in d = 2, the geometric
    graph, and one extinction-time replica per graph, as
    experiments._rgg_tau_replica does, in two cells."""

    name = "rgg-extinction"
    ROUND_S = 2.6
    # lam * R^d = 3.6 > 1 on a graph of ~5e5 edges, from full occupancy and
    # censored at t_cap: ~5000 recoveries and ~3500 infections, each of
    # which walks the vertex array to choose its target, so the O(n) walk
    # is most of the replica's cost
    DENSE = {"n": 10_000.0, "radius": 6.0, "lam": 0.1, "t_cap": 0.5, "graphs": 1}
    # lam * max degree = 0.5 < 1, run to extinction
    SPARSE = {"n": 2_000.0, "radius": 3.0, "birth": 0.5, "graphs": 4}

    def __init__(self, seed: int):
        self.seed = seed
        self.dense_cfg = rgg.GeometryConfig(self.DENSE["n"], self.DENSE["radius"], 2)
        self.sparse_cfg = rgg.GeometryConfig(self.SPARSE["n"], self.SPARSE["radius"], 2)

    def _graph(self, call, cfg, seed):
        cloud = call("rgg.sample_poisson_points", rgg.sample_poisson_points, cfg, seed)
        g = call("rgg.build_rgg", rgg.build_rgg, cloud, cfg.radius,
                 counts=lambda g: {"edges": g.edge_count})
        return cloud, g

    def run_round(self, r: int, call) -> dict:
        dense, sparse = [], []
        for i in range(self.DENSE["graphs"]):
            seed = sub_seed(self.seed, r, "dense", i)
            cloud, g = self._graph(call, self.dense_cfg, seed)
            lam, t_cap = self.DENSE["lam"], self.DENSE["t_cap"]
            call("contact.prepare", contact.sample_extinction_times, g, lam, t_cap, seed, 0)
            result = call("contact.sample_extinction_times", contact.sample_extinction_times,
                          g, lam, t_cap, seed, 1, counts=_tau_counts)
            dense.append((cloud, g, result))
        for i in range(self.SPARSE["graphs"]):
            seed = sub_seed(self.seed, r, "sparse", i)
            cloud, g = self._graph(call, self.sparse_cfg, seed)
            lam = self.SPARSE["birth"] / max(len(a) for a in g.adjacency)
            call("contact.prepare", contact.sample_extinction_times, g, lam, None, seed, 0)
            result = call("contact.sample_extinction_times", contact.sample_extinction_times,
                          g, lam, None, seed, 1, counts=_tau_counts)
            sparse.append((cloud, g, result))
        return {"dense": dense, "sparse": sparse}

    def check(self, out: dict) -> list[str]:
        fails = []
        for cell, cfg in (("dense", self.dense_cfg), ("sparse", self.sparse_cfg)):
            for i, (cloud, g, _) in enumerate(out[cell]):
                fails += checks.edge_set_matches(f"{cell} graph {i}", g.adjacency, cloud.points, cfg.radius)
        for i, (_, _, (taus, cens)) in enumerate(out["dense"]):
            fails += checks.all_censored_at(f"dense replica {i}", taus, cens, self.DENSE["t_cap"])
        sizes = [g.vertex_count for _, g, _ in out["sparse"]]
        taus = np.concatenate([res[0] for _, _, res in out["sparse"]])
        cens = np.concatenate([res[1] for _, _, res in out["sparse"]])
        fails += checks.subcritical_bracket("subcritical cell", taus, cens, sizes,
                                            self.SPARSE["birth"], ALPHA)
        return fails


class Percolation:
    """Site-percolation searches, oriented-percolation batches and exact
    profiles; contact never runs and rgg only samples and discretizes."""

    name = "percolation"
    ROUND_S = 1.6
    CROSSING = {"dims": (32, 32), "p": (0.5, 0.55, 0.6, 0.65, 0.7), "replicas": 40}
    # "floor" is the least share of the largest open cluster (of the
    # exhaustive optimum, on the tiny grids) that the heuristic path must
    # reach; the README gives the shares measured over many grids
    LONG_PATH = {"dims": (128, 128), "p": 0.75, "floor": 0.5}
    TINY = {"dims": (4, 4), "p": 0.7, "grids": 4, "floor": 0.75}
    # at p = 0.9 the planes chain; at 0.75 a third of the grids fell back to
    # the whole-grid search, which costs six times as much
    GLUE = {"dims": (16, 16, 16), "p": 0.9, "m": 2, "m1": 4, "floor": 0.005}
    EMBEDDING = {"n": 10_000.0, "radius": 10.0}
    OP_BATCHES = ((4, 0.6, 8, 20_000), (6, 0.75, 8, 20_000), (8, 0.9, 8, 20_000))  # ell, q, t, replicas
    PROFILE = {"ells": (8, 10, 12, 14, 16), "q": 0.7}

    def __init__(self, seed: int):
        self.seed = seed
        self.embed_cfg = rgg.GeometryConfig(self.EMBEDDING["n"], self.EMBEDDING["radius"], 2)

    def _grid(self, r, tag, dims, p):
        rng = np.random.default_rng(sub_seed(self.seed, r, tag))
        return percolation.SiteGrid(tuple(dims), rng.random(dims) < p, p, None)

    def run_round(self, r: int, call) -> dict:
        c = self.CROSSING
        cross_seed = sub_seed(self.seed, r, "crossing")
        crossing = [call("percolation.crossing_frequency", percolation.crossing_frequency,
                         c["dims"], p, c["replicas"], cross_seed,
                         counts=lambda _: {"grids": c["replicas"]})[0]
                    for p in c["p"]]
        grid = self._grid(r, "long", self.LONG_PATH["dims"], self.LONG_PATH["p"])
        long_path = call("percolation.find_long_open_path", percolation.find_long_open_path, grid,
                         counts=lambda _: {"sites": int(grid.open.sum())})
        tiny = []
        for i in range(self.TINY["grids"]):
            tg = self._grid(r, ("tiny", i), self.TINY["dims"], self.TINY["p"])
            tiny.append((tg, call("percolation.find_long_open_path", percolation.find_long_open_path, tg,
                                  counts=lambda _, tg=tg: {"sites": int(tg.open.sum())})))
        g3 = self._grid(r, "glue", self.GLUE["dims"], self.GLUE["p"])
        glued = call("percolation.glue_plane_paths", percolation.glue_plane_paths, g3,
                     self.GLUE["m"], self.GLUE["m1"])
        cloud = call("rgg.sample_poisson_points", rgg.sample_poisson_points, self.embed_cfg,
                     sub_seed(self.seed, r, "embedding"))
        embedding = call("rgg.find_caterpillar_embedding", rgg.find_caterpillar_embedding,
                         cloud, self.embed_cfg)
        survival = [call("percolation.op_survival_frequency", percolation.op_survival_frequency,
                         ell, q, t, n, sub_seed(self.seed, r, "op", ell),
                         counts=lambda _, k=t * n: {"replica_steps": k})[0]
                    for ell, q, t, n in self.OP_BATCHES]
        profiles = [call("percolation.op_extinction_profile_exact", percolation.op_extinction_profile_exact,
                         ell, self.PROFILE["q"])
                    for ell in self.PROFILE["ells"]]
        return {"crossing": crossing, "grid": grid, "long_path": long_path, "tiny": tiny,
                "g3": g3, "glued": glued, "cloud": cloud, "embedding": embedding,
                "survival": survival, "profiles": profiles}

    def check(self, out: dict) -> list[str]:
        fails = checks.non_decreasing("crossing frequency over p", out["crossing"])
        grid = out["grid"]
        fails += checks.path_valid("long path", grid.open, out["long_path"])
        fails += checks.path_length_within("long path", grid.open, len(out["long_path"]), False,
                                           self.LONG_PATH["floor"])
        for i, (tg, path) in enumerate(out["tiny"]):
            fails += checks.path_valid(f"tiny path {i}", tg.open, path)
            fails += checks.path_length_within(f"tiny path {i}", tg.open, len(path), True, self.TINY["floor"])
        glued = out["glued"].path
        fails += checks.path_valid("glued path", out["g3"].open, glued)
        fails += checks.path_length_within("glued path", out["g3"].open, len(glued), False, self.GLUE["floor"])
        if out["embedding"] is None:
            fails.append("embedding: none found in a dense cloud")
        else:
            fails += checks.embedding_within("embedding", out["cloud"].points, out["embedding"].blocks,
                                             self.EMBEDDING["radius"])
        for (ell, q, t, n), freq in zip(self.OP_BATCHES, out["survival"]):
            fails += checks.binomial_matches(f"OP survival ell={ell} q={q} t={t}", freq, n,
                                             oracles.op_survival(ell, q, t), ALPHA)
        fails += checks.non_decreasing("exact OP median over ell", [p.median_steps for p in out["profiles"]])
        return fails


class CoupledClocks:
    """The graphical construction: recorded clock windows with forward and
    dual sweeps, coupled and rate-coupled runs, lit snapshots, and the
    hashed-arrow oriented-percolation steppers."""

    name = "coupled-clocks"
    ROUND_S = 0.62
    WINDOW = {"lam": 0.8, "horizon": 3.0, "records": 200}
    COUPLED = {"lam": 0.6, "t_cap": 4.0, "runs": 400, "low": (0, 1), "high": (0, 1, 2, 3)}
    CATERPILLAR = (2, 4)  # spine length, clique size
    RATES = {"lams": (0.25, 0.5, 1.0, 2.0), "horizon": 20.0, "runs": 30}
    LIT = {"lam": 1.0, "t_cap": 20.0, "cadence": 1.0, "runs": 20}
    OP = {"ell": 24, "qs": (0.55, 0.7, 0.85), "horizon": 48, "runs": 20}

    def __init__(self, seed: int):
        self.seed = seed
        self.graphs = [graphs.build_complete(5),
                       graphs.random_connected_graph(5, 1, sub_seed(seed, "g5")),
                       graphs.random_connected_graph(6, 2, sub_seed(seed, "g6"))]
        self.cat = graphs.build_caterpillar(graphs.CaterpillarSpec(*self.CATERPILLAR))

    def run_round(self, r: int, call) -> dict:
        w = self.WINDOW
        duality = []
        for i in range(w["records"]):
            g = self.graphs[i % len(self.graphs)]
            rec = call("contact.record_event_window", contact.record_event_window,
                       g, w["lam"], sub_seed(self.seed, r, "window", i), w["horizon"])
            n = g.vertex_count
            fwd = [call("contact.forward_from_record", contact.forward_from_record, rec, [a], w["horizon"])
                   for a in range(n)]
            dual = [call("contact.dual_from_record", contact.dual_from_record, rec, [b], w["horizon"])[-1][1]
                    for b in range(n)]
            duality.append((fwd, dual))
        c = self.COUPLED
        coupled = [call("contact.simulate_coupled", contact.simulate_coupled,
                        self.graphs[i % len(self.graphs)],
                        contact.ContactConfig(c["lam"], c["t_cap"], sub_seed(self.seed, r, "coupled", i)),
                        c["low"], c["high"], counts=lambda run: {"events": run.events})
                   for i in range(c["runs"])]
        k = self.RATES
        rates = [call("contact.simulate_rate_coupled", contact.simulate_rate_coupled, self.cat.graph,
                      k["lams"], sub_seed(self.seed, r, "rates", i), k["horizon"])
                 for i in range(k["runs"])]
        lit = [call("contact.lit_snapshots", contact.lit_snapshots, self.cat,
                    contact.ContactConfig(self.LIT["lam"], self.LIT["t_cap"], sub_seed(self.seed, r, "lit", i)),
                    self.LIT["cadence"])
               for i in range(self.LIT["runs"])]
        o = self.OP
        op = []
        for i in range(o["runs"]):
            seed = sub_seed(self.seed, r, "op", i)
            runs = [call("percolation.op_run", percolation.op_run, o["ell"], q,
                         percolation.full_interval_initial(o["ell"]), o["horizon"], seed,
                         counts=_site_steps)
                    for q in o["qs"]]
            q = o["qs"][0]
            from_zero = call("percolation.op_run", percolation.op_run, o["ell"], q, [0], 2 * o["ell"], seed,
                             counts=_site_steps)
            passage = call("percolation.op_first_passage", percolation.op_first_passage, o["ell"], q, seed)
            keys = sorted(runs[0].arrows)
            uniforms = call("rng.uniform_from_key",
                            lambda: [uniform_from_key(seed, TAG_ARROW, *key) for key in keys],
                            counts=lambda us: {"calls": len(us)})
            op.append((runs, from_zero, passage, keys, uniforms))
        return {"duality": duality, "coupled": coupled, "rates": rates, "lit": lit, "op": op}

    def check(self, out: dict) -> list[str]:
        fails = []
        fwd_hits, dual_hits = [], []
        for fwd, dual in out["duality"]:
            n = len(fwd)
            fwd_hits += [b in fwd[a] for a in range(n) for b in range(n)]
            dual_hits += [a in dual[b] for a in range(n) for b in range(n)]
        fails += checks.same_answers("forward/dual", fwd_hits, dual_hits)
        runs = out["coupled"]
        fails += checks.contained("coupled finals", [r.final_low for r in runs], [r.final_high for r in runs])
        for i, run in enumerate(runs):
            fails += checks.non_decreasing(f"coupled run {i} extinction times", [run.tau_low, run.tau_high])
        lams = sorted(self.RATES["lams"])
        for i, taus in enumerate(out["rates"]):
            fails += checks.non_decreasing(f"rate-coupled run {i} over lam", [taus[lam] for lam in lams])
        blocks = self.CATERPILLAR[0] + 1
        for i, snaps in enumerate(out["lit"]):
            times = [s.time for s in snaps]
            if times != [k * self.LIT["cadence"] for k in range(len(times))] or not snaps:
                fails.append(f"lit run {i}: snapshot times {times[:4]}... off the cadence")
            elif any(len(s.lit) != blocks for s in snaps) or not all(snaps[0].lit):
                fails.append(f"lit run {i}: flags malformed or not all lit at time 0")
        o = self.OP
        for i, (runs, from_zero, passage, keys, uniforms) in enumerate(out["op"]):
            for lo, hi in zip(runs, runs[1:]):
                # a run stops recording at extinction: later steps are empty
                steps = max(len(lo.occupancy), len(hi.occupancy))
                fails += checks.contained(f"op run {i} q={lo.q} within q={hi.q}",
                                          _padded(lo.occupancy, steps), _padded(hi.occupancy, steps))
            fails += checks.first_passage_agrees(f"op run {i}", passage.sigma, passage.censored,
                                                 from_zero.occupancy, o["ell"])
            q = runs[0].q
            if any(runs[0].arrows[key] != (u < q) for key, u in zip(keys, uniforms)):
                fails.append(f"op run {i}: recorded arrows differ from uniform_from_key < q")
        return fails


def _padded(occupancy, steps):
    return list(occupancy) + [frozenset()] * (steps - len(occupancy))


WORKLOADS = {w.name: w for w in (SmallGraphOracle, RggExtinction, Percolation, CoupledClocks)}
