import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geocp import rng
from geocp.rng import derive_seed, mix64, mix64_array, uniform_from_key


def test_mix64_deterministic_and_order_sensitive():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert mix64(1, 2, 3) != mix64(3, 2, 1)
    assert mix64(0) != mix64(1)


def test_uniform_from_key_range_and_spread():
    us = [uniform_from_key(7, i) for i in range(20000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert abs(np.mean(us) - 0.5) < 0.01
    assert abs(np.var(us) - 1 / 12) < 0.005


def test_derive_seed_independent_of_batching():
    a = [derive_seed(42, i) for i in range(100)]
    assert len(set(a)) == 100
    # recomputing any index in isolation gives the same sub-seed
    assert derive_seed(42, 57) == a[57]


_U64 = st.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.lists(st.one_of(_U64, st.sampled_from([0, 2**64 - 1])), min_size=2, max_size=2),
                min_size=1, max_size=6).map(lambda rows: [list(col) for col in zip(*rows)]),
       st.integers(min_value=-2**70, max_value=2**70))
def test_mix64_array_matches_mix64_elementwise(columns, head):
    """columns[j][r] is key j of element r; `head` is an int key shared by all."""
    arrays = [np.array(col, dtype=np.uint64) for col in columns]
    rows = list(zip(*columns))
    assert mix64_array(*arrays).tolist() == [mix64(*row) for row in rows]
    # ints (masked to 64 bits) and arrays mix, and a fold continues from a state
    assert mix64_array(head, *arrays).tolist() == [mix64(head, *row) for row in rows]
    assert mix64_array(arrays[1], state=mix64_array(head, arrays[0])).tolist() == \
        [mix64(head, *row) for row in rows]
    assert mix64_array(head, head).tolist() == [mix64(head, head)]


def test_stream_tags_are_distinct():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(tags) >= 16
    assert len(set(tags.values())) == len(tags)
