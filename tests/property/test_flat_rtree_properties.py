"""Property tests: the flat SoA traversal is bit-equivalent to the test
oracle's recursive descent over the same packed boxes — same hit set *and
the same exact* ``nodes_visited`` — for all window/``min_count``
combinations and degenerate (empty / single-box) inputs, and every level's
arrays equal the oracle's, before and after an array round-trip."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree.flat import FlatRTree
from repro.rtree.geometry import Rect
from repro.rtree.packing import pack_hilbert
from tests.rtree import reference
from tests.rtree.test_rtree import as_arrays, assert_matches_oracle, oracle_tree

CARDS = (6, 5, 7)


@st.composite
def rect_sets(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    # min_value=0 keeps the empty tree in scope; 1-box trees are frequent.
    n = draw(st.sampled_from([0, 1, 2] + list(range(3, 121, 7))))
    rng = random.Random(seed)
    items = []
    for k in range(n):
        lows = tuple(rng.randrange(c) for c in CARDS)
        highs = tuple(
            min(c - 1, lo + rng.randrange(3)) for lo, c in zip(lows, CARDS)
        )
        items.append((Rect(lows, highs), k, rng.randrange(1, 40)))
    queries = []
    for _ in range(5):
        lows = tuple(rng.randrange(c) for c in CARDS)
        highs = tuple(
            min(c - 1, lo + rng.randrange(4)) for lo, c in zip(lows, CARDS)
        )
        queries.append((Rect(lows, highs), rng.randrange(1, 40)))
    return items, queries


def assert_flat_equivalent(tree, oracle, queries):
    """Oracle-equal level arrays; same hits and byte-identical
    nodes_visited with and without the supported filter."""
    assert [
        (lv.node_offsets.tolist(), lv.lows.tolist(), lv.highs.tolist(),
         lv.counts.tolist())
        for lv in tree.levels
    ] == reference.level_arrays(*oracle)
    for query, min_count in queries:
        for mc in (None, min_count):
            assert_matches_oracle(tree, oracle, query, mc)


@settings(max_examples=30, deadline=None)
@given(rect_sets(), st.sampled_from([3, 8]))
def test_flat_matches_packed_pointer_tree(data, max_entries):
    items, queries = data
    tree = pack_hilbert(*as_arrays(items), max_entries=max_entries)
    assert_flat_equivalent(tree, oracle_tree(items, max_entries), queries)
    tree.verify(*as_arrays(items))
