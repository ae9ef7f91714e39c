"""Contact process engine on finite graphs.

The process on graph G with infection rate lam: every infected vertex
recovers at rate 1, and every healthy vertex becomes infected at rate
lam times its number of infected neighbors.  Extinction time tau is the
first time the infected set is empty.

Two routes sample the process:

* one next-event (Gillespie) engine, `_extinction_kernel`, behind
  `simulate_extinction`, `sample_extinction_times` and `lit_snapshots`.  It
  keeps an integer bookkeeping of healthy-vertex infection pressures in
  plain Python over the graph's adjacency tuples.  An event updates only
  healthy neighbours, so an infected vertex's count of infected neighbours
  goes stale and is recounted when it recovers.  Pressures are also summed
  per block of 64 vertices, so the infection target is found by a search
  over the block sums and then inside one block instead of a walk over
  every vertex.  The sums are integer-exact and re-audited against a
  from-scratch recount every 10^6 events.  The draws are those of a
  private legacy numpy RandomState, bit for bit: the engine reads its raw
  MT19937 words in bulk and decodes them with numpy's own frozen legacy
  formulas, which saves numpy's per-call overhead on every event; numpy's
  global random state is never touched.  The engine stops at any time and
  resumes, and stopping draws nothing: the cap and the lit snapshots are
  stops its callers choose, and a stopped run is the same replica.

* a graphical construction over a fixed time window, built from
  counter-based clock streams keyed by (seed, stream id, occurrence
  index).  `record_event_window` hashes every ring of a window in bulk
  through `rng.mix64_array`, in rounds of bounded size.  The gaps keep
  `math.log1p` on purpose: numpy's vectorized log1p can differ from it in
  the last bit on some hosts, and a clock time must not depend on the
  host.  All coupling and duality features run on the window: one sweep
  over the recorded clocks carries forward runs, initial sets that share
  every clock, and infection rates that share thinned clocks; the
  time-reversed window gives the dual process.

Simultaneous events have probability zero in continuous time; if the
discrete generators ever collide, recoveries are applied before
infections and stream ids break remaining ties.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ABOVE_ZERO, BELOW_INF, as_int, as_real, as_vertex_set
from .graphs import CaterpillarGraph, Graph
from .rng import TAG_BIRTH_DEATH, TAG_CLOCK, TAG_CONTACT, TAG_MARK, mix64, mix64_array

_LAM = "infection rate must be positive and finite"
_T_CAP = "t_cap must be non-negative"
_T_END = "t_end must lie in the recorded window [0, horizon]"

@dataclass(frozen=True)
class ContactConfig:
    """Infection rate, censoring horizon and seed; recovery rate is 1."""

    lam: float
    t_cap: float | None = None
    seed: int = 0

    def __post_init__(self):
        as_real(self.lam, _LAM, ABOVE_ZERO, BELOW_INF)
        if self.t_cap is not None:
            as_real(self.t_cap, _T_CAP, 0.0, math.inf)


@dataclass(frozen=True)
class TauSample:
    """One extinction-time observation."""

    tau: float
    censored: bool
    seed: int

    def __post_init__(self):
        if self.censored:
            as_real(self.tau, "censored observations must carry the cap value", -BELOW_INF, BELOW_INF)


@dataclass(frozen=True)
class LitSnapshot:
    """Per-spine-vertex flags: clique holds at least clique_size/4 infected."""

    time: float
    lit: tuple[bool, ...]


_BLOCK_SHIFT = 6  # pressure sums are kept per block of 64 consecutive vertices


class _StartState(NamedTuple):
    """Kernel bookkeeping at time 0, copied into every replica.

    healthy[v] is 1 for a healthy vertex and 0 for an infected one, and
    nb[v] counts the infected neighbors of v (the kernel keeps it only
    while v is healthy, and recounts it when v recovers).  The infection
    pressure of v is healthy[v] * nb[v]; block[b] sums it over the vertices
    whose index shifted right by _BLOCK_SHIFT is b, and pressure all of it.
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
    infected = as_vertex_set(initial, n, f"initial vertex out of range: need integers in [0, {n})")
    return [int(v not in infected) for v in range(n)]


def _block_sums(healthy: list[int], nb: list[int]) -> list[int]:
    pressure = list(map(mul, healthy, nb))
    size = 1 << _BLOCK_SHIFT
    return [sum(pressure[lo:lo + size]) for lo in range(0, len(pressure), size)]


def _start_state(adjacency: Sequence[Sequence[int]], healthy: list[int]) -> _StartState:
    infected = [v for v, h in enumerate(healthy) if not h]
    nb = list(map(len, adjacency))  # count down from the degrees
    for v in compress(range(len(adjacency)), healthy):
        for w in adjacency[v]:
            nb[w] -= 1
    block = _block_sums(healthy, nb)
    return _StartState(healthy, nb, block, infected, sum(block))


def _pick_target(r: float, healthy: list[int], nb: list[int], block: list[int]) -> int:
    """The healthy vertex at which the running pressure sum, taken in
    vertex order, first exceeds r: a search over the block sums, then a
    walk over the vertices of one block.  Pressures are integers, so r >= S
    (from rounding in r = u * S) is answered like r = S - 1: by the last
    vertex with positive pressure."""
    sums = list(accumulate(block))
    if r >= sums[-1]:
        r = sums[-1] - 1
    b = bisect_right(sums, r)
    acc = sums[b - 1] if b else 0
    lo = b << _BLOCK_SHIFT
    for v in range(lo, min(lo + (1 << _BLOCK_SHIFT), len(nb))):
        if healthy[v]:
            acc += nb[v]
            if acc > r:
                break
    return v


class _LegacyMT(NamedTuple):
    """numpy's legacy RandomState over the MT19937 whose raw words the
    kernel decodes: `rs.seed` reseeds `bits` exactly as RandomState.seed
    does, and `bits.random_raw` yields the words random_sample and randint
    would consume."""

    rs: np.random.RandomState
    bits: np.random.MT19937


def _legacy_mt() -> _LegacyMT:
    """A generator for the kernel; its own seed never shows, since every
    replica reseeds it."""
    bits = np.random.MT19937(0)
    return _LegacyMT(np.random.RandomState(bits), bits)


_WORDS_PER_FETCH = 256  # raw words the kernel reads from the generator at a time
_EVENT_WORDS = 6  # words an event takes, rejected slot draws aside: three uniforms


def _extinction_kernel(adjacency: Sequence[Sequence[int]], start: _StartState, lam: float,
                       mt: _LegacyMT, seed: int, stop: float, audit_every: int = 1_000_000):
    """One replica from `start`, left unchanged, as a generator: it applies
    every event at or before `stop`, then yields (infected, events, t), the
    infected list at `stop` (the kernel's own: read it, do not change it),
    the event count so far and the last event time.  `send(s)` resumes it
    up to a later stop s with the pending event's draws kept, so where a
    run stops never changes the replica; callers choose the stops (a cap,
    snapshot times).  At extinction it yields the empty list with tau.

    `mt` is reseeded with `seed` (< 2**31), and each event draws, in this
    order: the waiting time, the event kind, then the recovering vertex's
    slot in the infected list or the infection target.  The draws are
    numpy's frozen legacy ones (NEP 19), decoded in place from the raw
    32-bit words: a uniform is random_sample's (a >> 5, b >> 6) double
    from two words, and a slot in [0, k) is randint(0, k)'s masked
    rejection, one word per try, with nothing drawn for k = 1.  Every
    `audit_every` events the block sums and the pressure sum are recounted.
    """
    mt.rs.seed(seed)
    raw = mt.bits.random_raw
    fetch = _WORDS_PER_FETCH
    words: list[int] = []
    i = 0
    top = -1  # past words[top] an event could run out of words: refill first
    scale = 2.0 ** -53
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
        if i > top:
            words = words[i:] + raw(fetch).tolist()
            i = 0
            top = len(words) - _EVENT_WORDS
        k = len(inf_list)
        total = k + lam * S
        u = ((words[i] >> 5) * 67108864.0 + (words[i + 1] >> 6)) * scale
        t_next = t - log(1.0 - u) / total  # bitwise t + Exp(total)
        while t_next > stop:
            stop = yield inf_list, events, t
        t = t_next
        events += 1
        u = ((words[i + 2] >> 5) * 67108864.0 + (words[i + 3] >> 6)) * scale
        i += 4
        if u * total < k:
            if k > 1:
                mask = (1 << (k - 1).bit_length()) - 1
                idx = words[i] & mask
                i += 1
                while idx >= k:
                    if i == len(words):
                        words = raw(fetch).tolist()
                        i = 0
                        top = len(words) - _EVENT_WORDS
                    idx = words[i] & mask
                    i += 1
            else:
                idx = 0
            v = inf_list[idx]
            inf_list[idx] = inf_list[-1]
            inf_list.pop()
            healthy[v] = 1
            p = 0  # v's nb went stale while it was infected: recount it
            for w in adjacency[v]:
                if healthy[w]:
                    nb[w] -= 1
                    block[w >> shift] -= 1
                else:
                    p += 1
            nb[v] = p
            S += 2 * p - len(adjacency[v])  # v's pressure in, one per healthy neighbour out
            block[v >> shift] += p
        else:
            u = ((words[i] >> 5) * 67108864.0 + (words[i + 1] >> 6)) * scale
            i += 2
            v = _pick_target(u * S, healthy, nb, block)
            healthy[v] = 0
            inf_list.append(v)
            p = nb[v]
            S += len(adjacency[v]) - 2 * p  # one per healthy neighbour in, v's pressure out
            block[v >> shift] -= p
            for w in adjacency[v]:
                if healthy[w]:
                    nb[w] += 1
                    block[w >> shift] += 1
        if events >= next_audit:
            next_audit += audit_every
            sums = _block_sums(healthy, nb)
            if sums != block or sum(sums) != S:
                raise RuntimeError("infection-pressure bookkeeping diverged")
    yield inf_list, events, t


def simulate_extinction(g: Graph, cfg: ContactConfig, initial: Iterable[int] | None = None) -> TauSample:
    """Sample one extinction time; censors at cfg.t_cap when set.

    Next-event sampling: the infection target is found by a search over
    pressure sums kept per block of 64 vertices, so an event costs the
    target's degree plus O(n/64) rather than a walk over every vertex.
    Replica i of `sample_extinction_times(g, cfg.lam, cfg.t_cap, master, ...)`
    is this run with cfg.seed = replica_seed(master, i).
    """
    tau, censored, _ = _replica(g, cfg, initial)
    return TauSample(float(tau), bool(censored), cfg.seed)


def _run(g: Graph, cfg: ContactConfig, initial: Iterable[int] | None, stop: float):
    """The kernel generator of the replica `simulate_extinction(g, cfg, initial)`."""
    healthy = _healthy_flags(g.vertex_count, initial)
    return _extinction_kernel(g.adjacency, _start_state(g.adjacency, healthy), float(cfg.lam),
                              _legacy_mt(), cfg.seed & 0x7FFFFFFF, stop)


def _replica(g: Graph, cfg: ContactConfig, initial: Iterable[int] | None) -> tuple[float, bool, int]:
    """`simulate_extinction`'s (tau, censored, events): one stop at the cap."""
    cap = math.inf if cfg.t_cap is None else float(cfg.t_cap)
    infected, events, t = next(_run(g, cfg, initial, cap))
    return (cap, True, events) if infected else (t, False, events)


def replica_seed(master_seed: int, i: int) -> int:
    """Seed of replica i of `sample_extinction_times`; `simulate_extinction`
    with this seed reruns that replica."""
    return mix64(master_seed, i) & 0x7FFFFFFF


def sample_extinction_times(g: Graph, lam: float, t_cap: float | None, master_seed: int,
                            replicas: int, initial: Iterable[int] | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Replica fan-out of `simulate_extinction`; replica i runs on seed
    replica_seed(master_seed, i), so results never depend on batching.
    numpy's global random state is left untouched.  Without a t_cap a
    supercritical run may not finish in any practical time (K30 at
    lam = 0.2 has E[tau] ~ 3.4e11): size it first with
    `exact.log_exact_clique_extinction` or the exact CTMC."""
    lam = as_real(lam, _LAM, ABOVE_ZERO, BELOW_INF)
    cap = math.inf if t_cap is None else as_real(t_cap, _T_CAP, 0.0, math.inf)
    replicas = as_int(replicas, "replicas must be a non-negative integer")
    healthy = _healthy_flags(g.vertex_count, initial)
    if replicas == 0:
        return np.empty(0), np.empty(0, dtype=bool)
    start = _start_state(g.adjacency, healthy)
    mt = _legacy_mt()
    taus, censored = [], []
    for i in range(replicas):
        run = _extinction_kernel(g.adjacency, start, lam, mt, replica_seed(master_seed, i), cap)
        infected, _, tau = next(run)
        censored.append(len(infected) > 0)
        # next(run, tau) ends an extinct run, cheaper than dropping it suspended
        taus.append(cap if infected else next(run, tau))
    return np.array(taus), np.array(censored)


# ---------------------------------------------------------------------------
# graphical construction: coupling, thinning, duality
# ---------------------------------------------------------------------------

_RECOVERY = 0


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


_ROUND_CAP = 1 << 16  # clock draws hashed per round, whatever lam * horizon is


def _clock_rings(keys: np.ndarray, rate: float, horizon: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ring up to `horizon` of the rate-`rate` clocks with uint64
    stream `keys`: (times, row in keys, counter) arrays.

    Ring c of a clock is its previous ring plus -log1p(-u) / rate, with u
    the uniform of (key, c).  Rows are drawn in blocks and rounds of at
    most _ROUND_CAP draws; cumsum along a row adds the gaps one at a time,
    in the same order as a sequential t + e.
    """
    mean = rate * horizon
    width = int(min(mean + 3.0 * math.sqrt(mean), _ROUND_CAP)) + 2
    times, rows, counters = [], [], []
    for lo in range(0, len(keys), _ROUND_CAP):
        live = np.arange(lo, min(lo + _ROUND_CAP, len(keys)))
        last = np.zeros(len(live))
        first = 0
        while len(live):
            cols = max(1, min(width, _ROUND_CAP // len(live)))
            counter = np.arange(first, first + cols, dtype=np.uint64)
            h = mix64_array(counter[None, :], state=keys[live, None]) >> np.uint64(11)
            neg_u = (h.astype(np.float64) * -2.0**-53).ravel().tolist()
            # math.log1p, not np.log1p: the vectorized one can differ in the
            # last bit, which would move clock times with the host's SIMD
            gaps = np.fromiter(map(math.log1p, neg_u), float, len(neg_u))
            t = -gaps.reshape(len(live), cols) / rate
            t[:, 0] += last
            np.cumsum(t, axis=1, out=t)
            keep = t <= horizon
            r, c = np.nonzero(keep)
            times.append(t[r, c])
            rows.append(live[r])
            counters.append(c + first)
            more = keep[:, -1]
            live, last = live[more], t[more, -1]
            first += cols
    if not times:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(times), np.concatenate(rows), np.concatenate(counters)


def record_event_window(g: Graph, lam: float, seed: int, horizon: float) -> EventRecord:
    """All clock rings of the graphical construction on `g` up to `horizon`.

    Stream ids 0..n-1 are the recovery clocks (rate 1) of the vertices,
    and n + j the infection clock (rate lam) of the j-th directed edge in
    adjacency order.  Ring c of stream s draws its gap from the key
    (seed, TAG_CLOCK, s, c) and, for an infection, its mark from
    (seed, TAG_MARK, s, c).  Every ring is hashed in bulk, and the events
    come sorted by (time, stream id, counter).
    """
    lam = as_real(lam, _LAM, ABOVE_ZERO, BELOW_INF)
    horizon = as_real(horizon, "graphical windows need a finite non-negative horizon", 0.0, BELOW_INF)
    n = g.vertex_count
    src = np.repeat(np.arange(n), [len(nbrs) for nbrs in g.adjacency])
    dst = np.fromiter((w for nbrs in g.adjacency for w in nbrs), np.int64, len(src))
    keys = mix64_array(np.arange(n + len(src)), state=mix64(seed, TAG_CLOCK))
    t_rec, sid_rec, c_rec = _clock_rings(keys[:n], 1.0, horizon)
    t_inf, j, c_inf = _clock_rings(keys[n:], lam, horizon)
    marks = mix64_array(seed, TAG_MARK, j + n, c_inf) >> np.uint64(11)
    t = np.concatenate([t_rec, t_inf])
    sid = np.concatenate([sid_rec, j + n])
    counter = np.concatenate([c_rec, c_inf])
    order = np.lexsort((counter, sid, t))
    kind = (sid >= n).astype(np.int64)
    a = np.concatenate([sid_rec, src[j]])
    b = np.concatenate([np.full(len(sid_rec), -1), dst[j]])
    mark = np.concatenate([np.zeros(len(sid_rec)), marks.astype(np.float64) * 2.0**-53])
    columns = (arr[order].tolist() for arr in (t, sid, counter, kind, a, b, mark))
    return EventRecord(g, lam, horizon, tuple(zip(*columns)))


def _mask_of(vertices: Iterable[int], n: int) -> int:
    return sum(1 << v for v in as_vertex_set(vertices, n, f"vertex out of range: need integers in [0, {n})"))


def _set_of(mask: int) -> frozenset[int]:
    out = set()
    v = 0
    while mask:
        if mask & 1:
            out.add(v)
        mask >>= 1
        v += 1
    return frozenset(out)


def _sweep(record: EventRecord, masks: Sequence[int], accept: Sequence[float], t_end: float
           ) -> tuple[list[int], list[float | None], int]:
    """Run the process from each vertex mask over the recorded events up to t_end.

    Mask i takes an infection whose mark is below accept[i].  Returns the
    final masks, each mask's extinction time (0.0 if it starts empty, None
    while alive) and the number of events applied.  When each mask starts
    inside the next one, containment is re-checked after every event; a
    violation can only mean an engine bug.

    The k masks sit side by side in one int, n bits each, so an event is a
    few big-int operations whatever k is.
    """
    n = record.graph.vertex_count
    k = len(masks)
    full = (1 << n) - 1
    ranked = sorted(range(k), key=accept.__getitem__)
    thresholds = [accept[i] for i in ranked]
    suffix = [0] * (k + 1)  # suffix[j]: bit 0 of the slots ranked j and above
    for j in range(k - 1, -1, -1):
        suffix[j] = suffix[j + 1] | 1 << ranked[j] * n
    ones = suffix[0]
    state = 0
    for i, m in enumerate(masks):
        state |= m << i * n
    lower = (1 << (k - 1) * n) - 1  # every slot but the last
    if state & ~(state >> n) & lower:
        lower = 0  # the masks do not start nested: no containment to keep
    taus = [None if m else 0.0 for m in masks]
    events = 0
    for t, _sid, _c, kind, a, b, mark in record.events:
        if t > t_end or not state:
            break
        events += 1
        hit = state >> a & ones  # bit 0 of every slot in which a is infected
        if not hit:
            continue  # the event changes no mask
        if kind == _RECOVERY:
            state ^= hit << a
            for i in range(k):
                if taus[i] is None and not state >> i * n & full:
                    taus[i] = t
        else:
            state |= (hit & suffix[bisect_right(thresholds, mark)]) << b
        if lower and state & ~(state >> n) & lower:
            raise RuntimeError("coupling containment violated: engine bug")
    return [state >> i * n & full for i in range(k)], taus, events


def forward_from_record(record: EventRecord, initial: Iterable[int], t_end: float,
                        lam_eff: float | None = None) -> frozenset[int]:
    """State at time t_end of the process driven by the recorded clocks.

    With lam_eff set (0 < lam_eff <= record.lam), infection events are thinned
    by their marks, realizing the lower-rate process on the same clocks.
    """
    t_end = as_real(t_end, _T_END, 0.0, record.horizon)
    accept = 1.0 if lam_eff is None else as_real(
        lam_eff, "thinned rate must be positive and cannot exceed the recorded rate",
        ABOVE_ZERO, record.lam) / record.lam
    (final,), _, _ = _sweep(record, [_mask_of(initial, record.graph.vertex_count)], [accept], t_end)
    return _set_of(final)


def dual_from_record(record: EventRecord, targets: Iterable[int], t_end: float
                     ) -> list[tuple[float, frozenset[int]]]:
    """Dual trajectory over the window [0, t_end]: the s-indexed sets of
    vertices whose infection at forward time t_end - s would reach
    `targets` at time t_end.  Runs the recorded events backwards with
    arrows reversed."""
    t_end = as_real(t_end, _T_END, 0.0, record.horizon)
    mask = _mask_of(targets, record.graph.vertex_count)
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
    n = g.vertex_count
    (low, high), (tau_low, tau_high), events = _sweep(
        record, [_mask_of(initial_low, n), _mask_of(initial_high, n)], [1.0, 1.0], cfg.t_cap)
    return CoupledRun(tau_low, tau_high, _set_of(low), _set_of(high), events)


def simulate_rate_coupled(g: Graph, lams: Sequence[float], seed: int, horizon: float,
                          initial: Iterable[int] | None = None) -> dict[float, float | None]:
    """Extinction times of several infection rates on shared, thinned clocks.

    The processes are monotone in the rate path by path; the returned taus
    (None = still alive at the horizon) are therefore non-decreasing.
    """
    if not lams:
        raise ValueError("need at least one rate")
    rates = sorted(set(as_real(x, "infection rates must be positive and finite", ABOVE_ZERO, BELOW_INF)
                       for x in lams))
    lam_max = rates[-1]
    record = record_event_window(g, lam_max, seed, horizon)
    n = g.vertex_count
    init = _mask_of(range(n) if initial is None else initial, n)
    _, taus, _ = _sweep(record, [init] * len(rates), [lam / lam_max for lam in rates], horizon)
    return dict(zip(rates, taus))


# ---------------------------------------------------------------------------
# clique reduction and caterpillar instrumentation
# ---------------------------------------------------------------------------


def birth_death_clique_simulate(m: int, lam: float, initial_count: int, seed: int,
                                t_cap: float | None = None) -> TauSample:
    """Extinction time on a complete graph simulated through the infected
    count only (exact reduction: all vertices of a clique are exchangeable)."""
    lam = as_real(lam, _LAM, ABOVE_ZERO, BELOW_INF)
    cap = math.inf if t_cap is None else as_real(t_cap, _T_CAP, 0.0, math.inf)
    m = as_int(m, "the clique size m must be a positive integer", 1)
    k = as_int(initial_count, "initial count must be an integer in [0, m]")
    if k > m:
        raise ValueError(f"initial count must be an integer in [0, m], not {k} > {m}")
    rng = np.random.default_rng(mix64(seed, TAG_CONTACT, TAG_BIRTH_DEATH))
    t = 0.0
    while k > 0:
        up = lam * k * (m - k)
        total = up + k
        dt = rng.exponential(1.0 / total)
        if t + dt > cap:
            return TauSample(cap, True, seed)
        t += dt
        if rng.random() * total < up:
            k += 1
        else:
            k -= 1
    return TauSample(t, False, seed)


def lit_snapshots(cat: CaterpillarGraph, cfg: ContactConfig, cadence: float | None = None,
                  initial: Iterable[int] | None = None) -> list[LitSnapshot]:
    """Record, at times 0, T, 2T, ..., which spine vertices are lit, i.e.
    whose clique holds at least clique_size/4 infected vertices.  The run
    is the replica `simulate_extinction(cat.graph, cfg, initial)`, stopped
    at each j*T <= cfg.t_cap until extinction.  A snapshot at s follows
    every event at or before s: a tie (probability zero) with a snapshot
    time applies before it, as one at the cap does.

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
    cadence = as_real(cadence, "cadence must be positive and finite", ABOVE_ZERO, BELOW_INF)
    horizon = math.inf if cfg.t_cap is None else cfg.t_cap
    run = _run(cat.graph, cfg, initial, 0.0)
    infected, _, _ = next(run)
    snapshots: list[LitSnapshot] = []
    while infected:
        lit = frozenset(infected)
        snapshots.append(LitSnapshot(len(snapshots) * cadence,
                                     tuple(len(lit.intersection(block)) >= m / 4.0
                                           for block in cat.cliques)))
        if len(snapshots) * cadence > horizon:
            return snapshots
        infected, _, _ = run.send(len(snapshots) * cadence)
    return snapshots
