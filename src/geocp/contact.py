"""Contact process engine on finite graphs.

The process on graph G with infection rate lam: every infected vertex
recovers at rate 1, and every healthy vertex becomes infected at rate
lam times its number of infected neighbors.  Extinction time tau is the
first time the infected set is empty.

Two complementary engines live here:

* `simulate_extinction` / `sample_extinction_times`: next-event (Gillespie)
  sampling over an integer bookkeeping of healthy-vertex infection
  pressures, in plain Python over the graph's adjacency tuples.  This is
  the workhorse for extinction-time statistics.  Pressures are also summed
  per block of 64 vertices, so the infection target is found by a search
  over the block sums and then inside one block instead of a walk over
  every vertex.  The sums are integer-exact and re-audited against a
  from-scratch recount every 10^6 events.  Draws come from a private
  numpy RandomState; numpy's global random state is never touched.

* a graphical construction over a fixed time window, built from
  counter-based clock streams keyed by (seed, stream id, occurrence
  index).  All coupling and duality features run on it: two initial sets
  share every recovery and infection clock, several infection rates share
  thinned clocks, and the time-reversed window gives the dual process.

Simultaneous events have probability zero in continuous time; if the
discrete generators ever collide, recoveries are applied before
infections and stream ids break remaining ties.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappush, heappop
from itertools import accumulate
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .graphs import CaterpillarGraph, Graph
from .rng import CounterStream, TAG_CLOCK, TAG_CONTACT, TAG_MARK, mix64, uniform_from_key


@dataclass(frozen=True)
class ContactConfig:
    """Infection rate, censoring horizon and seed; recovery rate is 1."""

    lam: float
    t_cap: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("infection rate must be positive")
        if self.t_cap is not None and self.t_cap < 0:
            raise ValueError("t_cap must be non-negative")


@dataclass(frozen=True)
class TauSample:
    """One extinction-time observation."""

    tau: float
    censored: bool
    seed: int
    graph_fingerprint: str

    def __post_init__(self):
        if self.censored and not math.isfinite(self.tau):
            raise ValueError("censored observations must carry the cap value")


@dataclass(frozen=True)
class InfectionState:
    """Snapshot of the engine: infected set plus the healthy-vertex
    infection-pressure sum the sampler relies on."""

    time: float
    infected: frozenset[int]
    pressure_sum: int


@dataclass(frozen=True)
class LitSnapshot:
    """Per-spine-vertex flags: clique holds at least clique_size/4 infected."""

    time: float
    lit: tuple[bool, ...]


@lru_cache(maxsize=128)
def _fingerprint(g: Graph) -> str:
    return g.fingerprint()


_BLOCK_SHIFT = 6  # pressure sums are kept per block of 64 consecutive vertices


class _StartState(NamedTuple):
    """Kernel bookkeeping at time 0, copied into every replica.

    healthy[v] is 1 for a healthy vertex and 0 for an infected one, and
    nb[v] counts the infected neighbors of v.  The infection pressure of v
    is healthy[v] * nb[v]; block[b] sums it over the vertices whose index
    shifted right by _BLOCK_SHIFT is b, and pressure sums all of it.
    `infected` lists the infected vertices in ascending order.
    """

    healthy: list[int]
    nb: list[int]
    block: list[int]
    infected: list[int]
    pressure: int


def _healthy_flags(n: int, initial: Iterable[int] | None) -> list[int]:
    """Validate an initial infected set; 1 marks the vertices left healthy."""
    if initial is None:
        return [0] * n
    healthy = [1] * n
    for v in initial:
        if not (0 <= v < n):
            raise ValueError(f"initial vertex {v} out of range")
        healthy[v] = 0
    return healthy


def _block_sums(healthy: list[int], nb: list[int]) -> list[int]:
    pressure = list(map(mul, healthy, nb))
    size = 1 << _BLOCK_SHIFT
    return [sum(pressure[lo:lo + size]) for lo in range(0, len(pressure), size)]


def _start_state(adjacency: Sequence[Sequence[int]], healthy: list[int]) -> _StartState:
    infected = [v for v, h in enumerate(healthy) if not h]
    nb = [0] * len(adjacency)
    for v in infected:
        for w in adjacency[v]:
            nb[w] += 1
    block = _block_sums(healthy, nb)
    return _StartState(healthy, nb, block, infected, sum(block))


def _pick_target(r: float, healthy: list[int], nb: list[int], block: list[int]) -> int:
    """The healthy vertex at which the running pressure sum, taken in
    vertex order, first exceeds r: a search over the block sums, then over
    the vertices of one block.  Pressures are integers, so r >= S (from
    rounding in r = u * S) is answered like r = S - 1: by the last vertex
    with positive pressure."""
    sums = list(accumulate(block))
    if r >= sums[-1]:
        r = sums[-1] - 1
    b = bisect_right(sums, r)
    lo = b << _BLOCK_SHIFT
    hi = lo + (1 << _BLOCK_SHIFT)
    running = list(accumulate(map(mul, healthy[lo:hi], nb[lo:hi]), initial=sums[b - 1] if b else 0))
    return lo + bisect_right(running, r) - 1


def _extinction_kernel(adjacency: Sequence[Sequence[int]], start: _StartState, lam: float,
                       t_cap: float, rs: np.random.RandomState, seed: int,
                       audit_every: int = 1_000_000) -> tuple[float, bool, int]:
    """One replica from `start`, which is left unchanged; t_cap < 0 means
    no cap.  Returns (tau, censored, events).

    `rs` is reseeded with `seed` (< 2**31), and each event draws, in this
    order: the waiting time, the event kind, then the recovering vertex's
    slot in the infected list or the infection target.  Every
    `audit_every` events the block sums and the pressure sum are recounted.
    """
    rs.seed(seed)
    random = rs.random_sample
    randint = rs.randint
    log = math.log
    shift = _BLOCK_SHIFT
    healthy = start.healthy[:]
    nb = start.nb[:]
    block = start.block[:]
    inf_list = start.infected[:]
    S = start.pressure
    t = 0.0
    events = 0
    next_audit = audit_every
    while inf_list:
        k = len(inf_list)
        total = k + lam * S
        dt = -log(1.0 - random()) / total
        if t_cap >= 0.0 and t + dt > t_cap:
            return t_cap, True, events
        t += dt
        events += 1
        if random() * total < k:
            idx = randint(0, k) if k > 1 else 0  # randint(0, 1) draws nothing
            v = inf_list[idx]
            inf_list[idx] = inf_list[-1]
            inf_list.pop()
            healthy[v] = 1
            p = nb[v]
            S += p
            block[v >> shift] += p
            for w in adjacency[v]:
                nb[w] -= 1
                if healthy[w]:
                    block[w >> shift] -= 1
                    S -= 1
        else:
            v = _pick_target(random() * S, healthy, nb, block)
            healthy[v] = 0
            inf_list.append(v)
            p = nb[v]
            S -= p
            block[v >> shift] -= p
            for w in adjacency[v]:
                nb[w] += 1
                if healthy[w]:
                    block[w >> shift] += 1
                    S += 1
        if events >= next_audit:
            next_audit += audit_every
            sums = _block_sums(healthy, nb)
            if sums != block or sum(sums) != S:
                raise RuntimeError("infection-pressure bookkeeping diverged")
    return t, False, events


def simulate_extinction(g: Graph, cfg: ContactConfig, initial: Iterable[int] | None = None) -> TauSample:
    """Sample one extinction time; censors at cfg.t_cap when set.

    Next-event sampling: the infection target is found by a search over
    pressure sums kept per block of 64 vertices, so an event costs the
    target's degree plus O(n/64) rather than a walk over every vertex.
    Replica i of `sample_extinction_times(g, cfg.lam, cfg.t_cap, master, ...)`
    is this run with cfg.seed = replica_seed(master, i).
    """
    n = g.vertex_count
    healthy = _healthy_flags(n, initial)
    if n == 0:
        return TauSample(0.0, False, cfg.seed, "empty")
    cap = -1.0 if cfg.t_cap is None else float(cfg.t_cap)
    tau, censored, _ = _extinction_kernel(g.adjacency, _start_state(g.adjacency, healthy),
                                          float(cfg.lam), cap, np.random.RandomState(),
                                          cfg.seed & 0x7FFFFFFF)
    return TauSample(float(tau), bool(censored), cfg.seed, _fingerprint(g))


def replica_seed(master_seed: int, i: int) -> int:
    """Seed of replica i of `sample_extinction_times`; `simulate_extinction`
    with this seed reruns that replica."""
    return mix64(master_seed, i) & 0x7FFFFFFF


def sample_extinction_times(g: Graph, lam: float, t_cap: float | None, master_seed: int,
                            replicas: int, initial: Iterable[int] | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Replica fan-out of `simulate_extinction`; replica i runs on seed
    replica_seed(master_seed, i), so results never depend on batching.
    numpy's global random state is left untouched."""
    healthy = _healthy_flags(g.vertex_count, initial)
    taus = np.empty(replicas)
    censored = np.empty(replicas, dtype=bool)
    if replicas == 0:
        return taus, censored
    start = _start_state(g.adjacency, healthy)
    rs = np.random.RandomState()
    lam = float(lam)
    cap = -1.0 if t_cap is None else float(t_cap)
    for i in range(replicas):
        tau, cens, _ = _extinction_kernel(g.adjacency, start, lam, cap, rs,
                                          replica_seed(master_seed, i))
        taus[i] = tau
        censored[i] = cens
    return taus, censored


# ---------------------------------------------------------------------------
# reference engine with snapshots and audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineRun:
    tau: float
    censored: bool
    events: int
    snapshots: tuple[tuple[float, frozenset], ...]
    sizes: tuple[tuple[float, int], ...]


class ContactEngine:
    """Pure-python next-event simulator; slower than the kernel but able to
    record states, and used to cross-check it."""

    def __init__(self, graph: Graph, lam: float, seed: int):
        if lam <= 0:
            raise ValueError("infection rate must be positive")
        self.graph = graph
        self.lam = lam
        self.rng = np.random.default_rng(mix64(seed, TAG_CONTACT))
        self._reset(range(graph.vertex_count))

    def _reset(self, initial: Iterable[int]) -> None:
        n = self.graph.vertex_count
        self.infected = [False] * n
        self.inf_set: set[int] = set()
        self.inf_nb = [0] * n
        for v in initial:
            self.infected[v] = True
            self.inf_set.add(v)
        for v in self.inf_set:
            for w in self.graph.adjacency[v]:
                self.inf_nb[w] += 1
        self.pressure = sum(self.inf_nb[v] for v in range(n) if not self.infected[v])
        self.time = 0.0

    def state(self) -> InfectionState:
        return InfectionState(self.time, frozenset(self.inf_set), self.pressure)

    def audit(self) -> None:
        """Recompute the bookkeeping from scratch and compare."""
        n = self.graph.vertex_count
        nb = [0] * n
        for v in self.inf_set:
            for w in self.graph.adjacency[v]:
                nb[w] += 1
        if nb != self.inf_nb:
            raise RuntimeError("neighbor-count bookkeeping diverged")
        pressure = sum(nb[v] for v in range(n) if not self.infected[v])
        if pressure != self.pressure:
            raise RuntimeError("infection-pressure bookkeeping diverged")

    def _recover(self, v: int) -> None:
        self.infected[v] = False
        self.inf_set.discard(v)
        self.pressure += self.inf_nb[v]
        for w in self.graph.adjacency[v]:
            self.inf_nb[w] -= 1
            if not self.infected[w]:
                self.pressure -= 1

    def _infect(self, v: int) -> None:
        self.infected[v] = True
        self.inf_set.add(v)
        self.pressure -= self.inf_nb[v]
        for w in self.graph.adjacency[v]:
            self.inf_nb[w] += 1
            if not self.infected[w]:
                self.pressure += 1

    def run(self, initial: Iterable[int] | None = None, t_cap: float | None = None,
            snapshot_interval: float | None = None, size_log_limit: int = 0,
            audit_every: int = 1_000_000) -> EngineRun:
        if initial is None:
            initial = range(self.graph.vertex_count)
        self._reset(initial)
        snapshots: list[tuple[float, frozenset]] = []
        sizes: list[tuple[float, int]] = []
        next_snap = 0.0
        events = 0
        while self.inf_set:
            k = len(self.inf_set)
            total = k + self.lam * self.pressure
            dt = self.rng.exponential(1.0 / total)
            t_next = self.time + dt
            horizon = t_cap if t_cap is not None else math.inf
            while snapshot_interval and next_snap <= min(t_next, horizon):
                snapshots.append((next_snap, frozenset(self.inf_set)))
                next_snap += snapshot_interval
            if t_cap is not None and t_next > t_cap:
                return EngineRun(t_cap, True, events, tuple(snapshots), tuple(sizes))
            self.time = t_next
            events += 1
            u = self.rng.random() * total
            if u < k:
                idx = int(self.rng.integers(k))
                v = sorted(self.inf_set)[idx]
                self._recover(v)
            else:
                r = self.rng.random() * self.pressure
                acc = 0.0
                target = -1
                for v in range(self.graph.vertex_count):
                    if not self.infected[v] and self.inf_nb[v] > 0:
                        acc += self.inf_nb[v]
                        if r < acc:
                            target = v
                            break
                self._infect(target)
            if size_log_limit and len(sizes) < size_log_limit:
                sizes.append((self.time, len(self.inf_set)))
            if events % audit_every == 0:
                self.audit()
        return EngineRun(self.time, False, events, tuple(snapshots), tuple(sizes))


# ---------------------------------------------------------------------------
# graphical construction: coupling, thinning, duality
# ---------------------------------------------------------------------------

_RECOVERY = 0
_INFECTION = 1


@dataclass(frozen=True)
class EventRecord:
    """All clock rings of one graphical construction up to `horizon`.

    Events are (time, stream id, counter, kind, a, b, mark); infections are
    directed a -> b and carry a uniform mark used for rate thinning.
    """

    graph: Graph
    lam: float
    horizon: float
    events: tuple


def record_event_window(g: Graph, lam: float, seed: int, horizon: float) -> EventRecord:
    if horizon < 0 or not math.isfinite(horizon):
        raise ValueError("graphical windows need a finite non-negative horizon")
    events = []
    directed = [(v, w) for v in range(g.vertex_count) for w in g.adjacency[v]]
    heap = []
    streams = []
    for v in range(g.vertex_count):
        streams.append((CounterStream(seed, TAG_CLOCK, v), 1.0, _RECOVERY, v, -1))
    for j, (a, b) in enumerate(directed):
        streams.append((CounterStream(seed, TAG_CLOCK, g.vertex_count + j), lam, _INFECTION, a, b))
    for sid, (stream, rate, kind, a, b) in enumerate(streams):
        t0 = stream.exponential(0, rate)
        if t0 <= horizon:
            heappush(heap, (t0, sid, 0))
    while heap:
        t, sid, counter = heappop(heap)
        stream, rate, kind, a, b = streams[sid]
        mark = uniform_from_key(seed, TAG_MARK, sid, counter) if kind == _INFECTION else 0.0
        events.append((t, sid, counter, kind, a, b, mark))
        t_next = t + stream.exponential(counter + 1, rate)
        if t_next <= horizon:
            heappush(heap, (t_next, sid, counter + 1))
    return EventRecord(g, lam, horizon, tuple(events))


def _mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _set_of(mask: int) -> frozenset[int]:
    out = set()
    v = 0
    while mask:
        if mask & 1:
            out.add(v)
        mask >>= 1
        v += 1
    return frozenset(out)


def forward_from_record(record: EventRecord, initial: Iterable[int], t_end: float,
                        lam_eff: float | None = None) -> frozenset[int]:
    """State at time t_end of the process driven by the recorded clocks.

    With lam_eff set (must be <= record.lam), infection events are thinned
    by their marks, realizing the lower-rate process on the same clocks.
    """
    if t_end > record.horizon:
        raise ValueError("window exceeds the recorded stream")
    accept = 1.0 if lam_eff is None else lam_eff / record.lam
    if accept > 1.0:
        raise ValueError("thinned rate cannot exceed the recorded rate")
    mask = _mask_of(initial)
    for t, _sid, _c, kind, a, b, mark in record.events:
        if t > t_end or not mask:
            break
        if kind == _RECOVERY:
            mask &= ~(1 << a)
        elif mark < accept and mask >> a & 1:
            mask |= 1 << b
    return _set_of(mask)


def dual_from_record(record: EventRecord, targets: Iterable[int], t_end: float
                     ) -> list[tuple[float, frozenset[int]]]:
    """Dual trajectory over the window [0, t_end]: the s-indexed sets of
    vertices whose infection at forward time t_end - s would reach
    `targets` at time t_end.  Runs the recorded events backwards with
    arrows reversed."""
    if t_end > record.horizon:
        raise ValueError("window exceeds the recorded stream")
    mask = _mask_of(targets)
    traj = [(0.0, _set_of(mask))]
    relevant = [ev for ev in record.events if ev[0] <= t_end]
    for t, _sid, _c, kind, a, b, _mark in reversed(relevant):
        s = t_end - t
        if kind == _RECOVERY:
            mask &= ~(1 << a)
        elif mask >> b & 1:
            mask |= 1 << a
        traj.append((s, _set_of(mask)))
    return traj


@dataclass(frozen=True)
class DualRun:
    target: int
    window: float
    trajectory: tuple[tuple[float, frozenset[int]], ...]

    @property
    def final(self) -> frozenset[int]:
        return self.trajectory[-1][1]


def simulate_dual(g: Graph, cfg: ContactConfig, target: int, window: float) -> DualRun:
    """Dual process of a single target vertex over [0, window]."""
    if not (0 <= target < g.vertex_count):
        raise ValueError("target vertex out of range")
    record = record_event_window(g, cfg.lam, cfg.seed, window)
    return DualRun(target, window, tuple(dual_from_record(record, [target], window)))


@dataclass(frozen=True)
class CoupledRun:
    tau_low: float | None
    tau_high: float | None
    final_low: frozenset[int]
    final_high: frozenset[int]
    events: int


def simulate_coupled(g: Graph, cfg: ContactConfig, initial_low: Iterable[int],
                     initial_high: Iterable[int]) -> CoupledRun:
    """Two processes on one graphical construction.

    When initial_low is contained in initial_high, containment of the
    trajectories is re-checked after every event; a violation aborts, since
    it can only mean an engine bug.
    """
    if cfg.t_cap is None:
        raise ValueError("coupled runs need a finite t_cap window")
    record = record_event_window(g, cfg.lam, cfg.seed, cfg.t_cap)
    low = _mask_of(initial_low)
    high = _mask_of(initial_high)
    check = (low & ~high) == 0
    tau_low = 0.0 if not low else None
    tau_high = 0.0 if not high else None
    events = 0
    for t, _sid, _c, kind, a, b, _mark in record.events:
        if not low and not high:
            break
        if kind == _RECOVERY:
            low &= ~(1 << a)
            high &= ~(1 << a)
        else:
            if low >> a & 1:
                low |= 1 << b
            if high >> a & 1:
                high |= 1 << b
        events += 1
        if check and low & ~high:
            raise RuntimeError("coupling containment violated: engine bug")
        if tau_low is None and not low:
            tau_low = t
        if tau_high is None and not high:
            tau_high = t
    return CoupledRun(tau_low, tau_high, _set_of(low), _set_of(high), events)


def simulate_rate_coupled(g: Graph, lams: Sequence[float], seed: int, horizon: float,
                          initial: Iterable[int] | None = None) -> dict[float, float | None]:
    """Extinction times of several infection rates on shared, thinned clocks.

    The processes are monotone in the rate path by path; the returned taus
    (None = still alive at the horizon) are therefore non-decreasing.
    """
    if not lams:
        raise ValueError("need at least one rate")
    rates = sorted(set(float(x) for x in lams))
    lam_max = rates[-1]
    record = record_event_window(g, lam_max, seed, horizon)
    init = range(g.vertex_count) if initial is None else list(initial)
    masks = {lam: _mask_of(init) for lam in rates}
    taus: dict[float, float | None] = {lam: (0.0 if not masks[lam] else None) for lam in rates}
    for t, _sid, _c, kind, a, b, mark in record.events:
        if all(m == 0 for m in masks.values()):
            break
        for lam in rates:
            mask = masks[lam]
            if kind == _RECOVERY:
                mask &= ~(1 << a)
            elif mark < lam / lam_max and mask >> a & 1:
                mask |= 1 << b
            masks[lam] = mask
            if taus[lam] is None and not mask:
                taus[lam] = t
        for lo, hi in zip(rates, rates[1:]):
            if masks[lo] & ~masks[hi]:
                raise RuntimeError("rate coupling containment violated: engine bug")
    return taus


# ---------------------------------------------------------------------------
# clique reduction and caterpillar instrumentation
# ---------------------------------------------------------------------------


def sizes_to_csv_text(run: EngineRun) -> str:
    """Bounded trajectory export: one (time, infected count) row per event."""
    lines = ["time,size"]
    lines.extend(f"{t!r},{s}" for t, s in run.sizes)
    return "\n".join(lines) + "\n"


def birth_death_clique_simulate(m: int, lam: float, initial_count: int, seed: int,
                                t_cap: float | None = None) -> TauSample:
    """Extinction time on a complete graph simulated through the infected
    count only (exact reduction: all vertices of a clique are exchangeable)."""
    if not (0 <= initial_count <= m):
        raise ValueError("initial count must lie in [0, m]")
    rng = np.random.default_rng(mix64(seed, TAG_CONTACT, 0x4244))
    k = initial_count
    t = 0.0
    fp = f"clique:{m}"
    while k > 0:
        up = lam * k * (m - k)
        total = up + k
        dt = rng.exponential(1.0 / total)
        if t_cap is not None and t + dt > t_cap:
            return TauSample(t_cap, True, seed, fp)
        t += dt
        if rng.random() * total < up:
            k += 1
        else:
            k -= 1
    return TauSample(t, False, seed, fp)


def lit_snapshots(cat: CaterpillarGraph, cfg: ContactConfig, cadence: float | None = None,
                  initial: Iterable[int] | None = None) -> list[LitSnapshot]:
    """Record, at times 0, T, 2T, ..., which spine vertices are lit, i.e.
    whose clique holds at least clique_size/4 infected vertices.

    The default cadence is exp(M*log(lam*M)/16), the persistence scale of
    one clique; it needs lam*M > 1, otherwise pass a cadence explicitly.
    """
    if not isinstance(cat, CaterpillarGraph):
        raise ValueError("lit snapshots need a caterpillar graph with labels")
    m = cat.clique_size
    if cadence is None:
        if cfg.lam * m <= 1.0:
            raise ValueError("default cadence undefined for lam*M <= 1; pass one")
        cadence = math.exp(m * math.log(cfg.lam * m) / 16.0)
    engine = ContactEngine(cat.graph, cfg.lam, cfg.seed)
    run = engine.run(initial=initial, t_cap=cfg.t_cap, snapshot_interval=cadence)
    threshold = m / 4.0
    return [
        LitSnapshot(t, tuple(len(infected.intersection(block)) >= threshold
                             for block in cat.cliques))
        for t, infected in run.snapshots
    ]
