"""Property tests: the packed R-tree agrees with brute-force range search."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree.geometry import Rect
from repro.rtree.packing import pack_hilbert
from tests.rtree.test_rtree import as_arrays, brute

CARDS = (6, 5, 7)


@st.composite
def rect_sets(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    n = draw(st.integers(min_value=0, max_value=120))
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


@settings(max_examples=30, deadline=None)
@given(rect_sets(), st.sampled_from([2, 8]))
def test_packed_tree_matches_brute_force(data, max_entries):
    items, queries = data
    tree = pack_hilbert(*as_arrays(items), max_entries=max_entries)
    for query, mc in queries:
        assert sorted(tree.search_hits(query).rows.tolist()) == \
            brute(items, query)
        assert sorted(tree.search_hits(query, min_count=mc).rows.tolist()) == \
            brute(items, query, mc)
