"""Unit tests of the flat SoA R-tree: search, array round-trip, validation."""

import random

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.rtree.flat import FlatLevel, FlatRTree, _gather_ranges
from repro.rtree.geometry import Rect
from repro.rtree.packing import pack_hilbert
from tests.rtree import reference
from tests.rtree.test_rtree import (
    as_arrays,
    assert_matches_oracle,
    oracle_items,
    oracle_tree,
)

CARDS = (6, 5, 7)
FULL = Rect((0, 0, 0), tuple(c - 1 for c in CARDS))


def make_items(rng, n):
    items = []
    for k in range(n):
        lows = tuple(rng.randrange(c) for c in CARDS)
        highs = tuple(
            min(c - 1, lo + rng.randrange(3)) for lo, c in zip(lows, CARDS)
        )
        items.append((Rect(lows, highs), k, rng.randrange(1, 40)))
    return items


def make_queries(rng, n=8):
    queries = []
    for _ in range(n):
        lows = tuple(rng.randrange(c) for c in CARDS)
        highs = tuple(
            min(c - 1, lo + rng.randrange(4)) for lo, c in zip(lows, CARDS)
        )
        queries.append((Rect(lows, highs), rng.choice([None, rng.randrange(1, 40)])))
    return queries


@pytest.mark.parametrize("packer", [pack_hilbert])
def test_compile_packed_tree_equivalence(packer):
    rng = random.Random(11)
    items = make_items(rng, 100)
    tree = packer(*as_arrays(items), max_entries=8)
    oracle = oracle_tree(items, 8)
    assert len(tree) == len(items)
    assert tree.height == oracle[1]
    for query, mc in make_queries(rng):
        assert_matches_oracle(tree, oracle, query, mc)


def test_empty_and_single_node_trees():
    empty = pack_hilbert(*as_arrays([]))
    hits = assert_matches_oracle(empty, oracle_tree([], 8), FULL)
    assert len(hits) == 0 and hits.nodes_visited == 1

    items = [(reference.point((1, 2, 3)), 0, 7)]
    one = pack_hilbert(*as_arrays(items))
    oracle = oracle_tree(items, 8)
    hit = assert_matches_oracle(one, oracle, FULL)
    assert hit.rows.tolist() == [0] and hit.counts.tolist() == [7]
    assert hit.nodes_visited == 1
    assert len(assert_matches_oracle(one, oracle, FULL, min_count=8)) == 0
    miss = assert_matches_oracle(one, oracle, reference.point((0, 0, 0)))
    assert len(miss) == 0 and miss.nodes_visited == 1


def test_gather_ranges():
    starts = np.asarray([0, 5, 9, 9], dtype=np.intp)
    ends = np.asarray([3, 5, 12, 10], dtype=np.intp)
    assert _gather_ranges(starts, ends).tolist() == [0, 1, 2, 9, 10, 11, 9]
    assert _gather_ranges(
        np.asarray([4], dtype=np.intp), np.asarray([4], dtype=np.intp)
    ).size == 0


def test_dimension_mismatch_rejected():
    tree = pack_hilbert(*as_arrays(make_items(random.Random(1), 10)), max_entries=4)
    with pytest.raises(IndexError_):
        tree.search_hits(Rect((0, 0), (1, 1)))


def test_unbalanced_tree_rejected():
    """Levels that do not chain — some entry has no node beneath it, or a
    node no entry above — are refused (the child-order invariant)."""
    tree = pack_hilbert(*as_arrays(make_items(random.Random(4), 30)), max_entries=4)
    assert tree.height == 3
    root, _, leaf = tree.levels
    with pytest.raises(IndexError_):
        FlatRTree(3, [root, leaf], tree.payload_rows)
    with pytest.raises(IndexError_):
        FlatRTree(3, [], tree.payload_rows)
    lone = FlatLevel(
        np.asarray([0, 1]), leaf.lows[:1], leaf.highs[:1], leaf.counts[:1]
    )
    with pytest.raises(IndexError_):
        FlatRTree(3, [lone], tree.payload_rows)  # one entry, 30 payload rows


def test_search_hits_matches_entry_search():
    """The array search returns the oracle's entries — ids and counts — and
    the exact same ``nodes_visited``."""
    rng = random.Random(31)
    items = make_items(rng, 80)
    tree = pack_hilbert(*as_arrays(items), max_entries=6)
    oracle = oracle_tree(items, 6)
    plain = oracle_items(items)
    for query, mc in make_queries(rng):
        hits = assert_matches_oracle(tree, oracle, query, mc)
        expected, _ = reference.search(*oracle, query.lows, query.highs, mc)
        assert sorted(zip(hits.rows.tolist(), hits.counts.tolist())) == \
            sorted((i, plain[i][2]) for i in expected)


def test_search_hits_rows_gather_payload_rows():
    """Hit rows are the input positions of the hit boxes, as one int64
    vector gathered from ``payload_rows``."""
    items = make_items(random.Random(32), 40)
    tree = pack_hilbert(*as_arrays(items), max_entries=4)
    hits = tree.search_hits(FULL)
    assert sorted(hits.rows.tolist()) == list(range(40))
    assert hits.rows.dtype == np.int64
    assert np.array_equal(hits.rows, tree.payload_rows[hits.slots])
    lows, highs, counts = as_arrays(items)
    leaf = tree.levels[-1]
    assert np.array_equal(leaf.lows[hits.slots], lows[hits.rows])
    assert np.array_equal(leaf.counts[hits.slots], counts[hits.rows])
