"""Counter-based random streams shared by every simulator in the package.

All randomness is derived by hashing integer key tuples (seed, stream id,
counter) through a 64-bit finalizer.  This buys three things at once:

* replicas can be fanned out to workers without a shared generator, and
  adding replicas never perturbs earlier ones;
* coupled experiments (same arrows, different retention probability; same
  clocks, different infection rate) replay identical noise by reusing keys;
* any single draw can be reproduced in isolation for debugging.

A stream is a key prefix such as (seed, TAG_CLOCK, stream id), and its
k-th draw hashes the prefix with the counter k.  `mix64_array` hashes many
keys at once with the same result, element for element, as `mix64`: the
contact process's clock windows and the oriented-percolation arrows are
drawn that way, in bulk.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT = 0xD1342543DE82EF95
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
# the same constants and the finalizer's shifts as numpy scalars, for mix64_array
_U_MULT, _U_GOLDEN, _U_M1, _U_M2 = map(np.uint64, (_MULT, _GOLDEN, _M1, _M2))
_U30, _U27, _U31 = map(np.uint64, (30, 27, 31))

# fixed stream tags so independent consumers never collide on keys
TAG_REPLICA = 0x52455053
TAG_ARROW = 0x4152524F
TAG_SITE = 0x53495445
TAG_POINTS = 0x504F494E
TAG_CLOCK = 0x434C4F43
TAG_MARK = 0x4D41524B
TAG_CONTACT = 0x434F4E54
TAG_CROSSING = 0x43524F53  # crossing_frequency's grids
TAG_SPECTRAL = 0x50485459  # sample_clique_extinction_times
TAG_BIRTH_DEATH = 0x4244  # birth_death_clique_simulate, after TAG_CONTACT
TAG_PRUFER = 0x5052  # random_connected_graph's tree
TAG_EXTRA_EDGE = 0x4558  # random_connected_graph's extra edges
TAG_BATTERY = 0x42415454  # battery_graphs
TAG_RGG_TAU = 0x544155  # rgg-tau's contact replicas
TAG_D1_CONNECT, TAG_D1_FRAGMENT = 0x434E, 0x4652  # d1-regimes' replica salts, one per regime


def _finalize(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def mix64(*keys: int) -> int:
    """Fold integer keys into one well-mixed 64-bit value (order sensitive)."""
    h = _GOLDEN
    for k in keys:
        h = _finalize((h + _GOLDEN) ^ ((k & _MASK) * _MULT & _MASK))
    return h


def mix64_array(*keys, state=_GOLDEN) -> np.ndarray:
    """`mix64` over numpy arrays: the keys broadcast together, and each
    element equals `mix64` of its keys, read as uint64 (so negative ints wrap
    as `mix64` masks them).  `state`, an int or a uint64 array of at least
    one dimension, continues a fold: mix64_array(b, state=mix64(a)) ==
    mix64(a, b).  The result has at least one dimension."""
    h = state
    for k in keys:
        if isinstance(h, int):
            if isinstance(k, int):  # a scalar prefix folds in plain Python
                h = _finalize((h + _GOLDEN) ^ ((k & _MASK) * _MULT & _MASK))
                continue
            h = np.array([h & _MASK], dtype=np.uint64)
        if isinstance(k, int):
            k = (k & _MASK) * _MULT & _MASK
        else:
            k = np.asarray(k).astype(np.uint64, copy=False) * _U_MULT
        h = (h + _U_GOLDEN) ^ k
        h ^= h >> _U30
        h *= _U_M1
        h ^= h >> _U27
        h *= _U_M2
        h ^= h >> _U31
    return np.array([h & _MASK], dtype=np.uint64) if isinstance(h, int) else h


def uniform_from_key(*keys: int) -> float:
    """Uniform variate in [0, 1) determined entirely by the key tuple."""
    return (mix64(*keys) >> 11) * 2.0**-53


def derive_seed(master: int, index: int) -> int:
    """64-bit sub-seed for replica `index`; independent of other indices."""
    return mix64(master, TAG_REPLICA, index)
