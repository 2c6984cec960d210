"""Supported R-tree: the Lemma 4.4 filter and its statistics."""

import random

from repro.rtree.geometry import Rect
from repro.rtree.supported import SupportedRTree
from tests.rtree import reference
from tests.rtree.test_rtree import (
    as_arrays,
    brute,
    oracle_tree,
    random_items,
    random_query,
)


def build(seed=9, n=300):
    rng = random.Random(seed)
    items = random_items(rng, n)
    return SupportedRTree.build(*as_arrays(items)), items, rng


def test_search_supported_matches_brute_force():
    tree, items, rng = build()
    for _ in range(50):
        q = random_query(rng)
        mc = rng.randrange(1, 50)
        got = sorted(tree.search_arrays(q, mc).rows.tolist())
        assert got == brute(items, q, mc)


def test_plain_search_unfiltered():
    tree, items, rng = build()
    q = Rect((0, 0, 0), (7, 5, 9))
    assert sorted(tree.search_arrays(q).rows.tolist()) == brute(items, q)


def test_filter_prunes_node_accesses():
    """A high threshold must never visit more nodes than the plain search."""
    tree, items, rng = build()
    oracle = oracle_tree(items, tree.max_entries)
    q = Rect((0, 0, 0), (7, 5, 9))
    plain = tree.search_arrays(q).nodes_visited
    for mc in (10, 30, 49):
        filtered = tree.search_arrays(q, mc).nodes_visited
        assert filtered <= plain
        # exactly the nodes the oracle's pruned descent reads
        assert filtered == reference.search(*oracle, q.lows, q.highs, mc)[1]
    # an impossible threshold reads only the root
    assert tree.search_arrays(q, 10_000).nodes_visited == 1
    assert len(tree.search_arrays(q, 10_000)) == 0


def test_fraction_empty_tree():
    """An empty tree holds no item of any count: every threshold finds none."""
    tree = SupportedRTree.build(*as_arrays([], n_dims=2))
    assert len(tree) == 0
    q = Rect((0, 0), (9, 9))
    for mc in (None, 1, 10_000):
        assert len(tree.search_arrays(q, mc)) == 0


def test_level_stats_exposed():
    tree, _, _ = build()
    stats = tree.level_stats()
    assert stats and stats[0].level == 0
    assert tree.height == max(s.level for s in stats) + 1
    assert SupportedRTree.build(*as_arrays([])).level_stats() == []


def test_level_max_counts_are_the_oracle_nodes_maxima():
    tree, items, _ = build()
    levels = reference.level_arrays(*oracle_tree(items, tree.max_entries))
    expected = [
        sorted(max(counts[a:b]) for a, b in zip(offsets, offsets[1:]))
        for offsets, _, _, counts in reversed(levels)  # leaf level first
    ]
    assert [c.tolist() for c in tree.level_max_counts()] == expected
    empty = SupportedRTree.build(*as_arrays([]))
    assert [c.tolist() for c in empty.level_max_counts()] == [[0]]
