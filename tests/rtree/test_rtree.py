"""The packed R-tree against the test oracle: search, invariants, validation.

Also home of the helpers the other R-tree suites share: every tree under
test is packed next to a :mod:`tests.rtree.reference` tree over the same
boxes in the same (scalar-keyed) Hilbert order, and compared with it.
"""

import random

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.rtree.geometry import Rect
from repro.rtree.hilbert import bits_needed
from repro.rtree.packing import pack_hilbert
from repro.rtree.supported import SupportedRTree
from tests.rtree import reference


def random_items(rng, n, cards=(8, 6, 10)):
    """``(box, id, count)`` triples; the id is the item's position."""
    items = []
    for k in range(n):
        lows = tuple(rng.randrange(c) for c in cards)
        highs = tuple(
            min(c - 1, lo + rng.randrange(3)) for lo, c in zip(lows, cards)
        )
        items.append((Rect(lows, highs), k, rng.randrange(1, 50)))
    return items


def random_query(rng, cards=(8, 6, 10)):
    lows = tuple(rng.randrange(c) for c in cards)
    highs = tuple(min(c - 1, lo + rng.randrange(4)) for lo, c in zip(lows, cards))
    return Rect(lows, highs)


def as_arrays(items, n_dims=3):
    """The ``(lows, highs, counts)`` arrays the packer takes."""
    shape = (len(items), n_dims)
    return (
        np.array([r.lows for r, _, _ in items], dtype=np.int64).reshape(shape),
        np.array([r.highs for r, _, _ in items], dtype=np.int64).reshape(shape),
        np.array([c for _, _, c in items], dtype=np.int64),
    )


def oracle_items(items):
    return [(rect.lows, rect.highs, count) for rect, _, count in items]


def brute(items, query, min_count=None):
    return reference.brute(oracle_items(items), query.lows, query.highs, min_count)


def hilbert_order(items):
    """Positions in the stable order of the boxes' scalar Hilbert keys
    (doubled centers, so they stay integral)."""
    if not items:
        return []
    bits = bits_needed(max(max(r.highs) for r, _, _ in items) * 2 + 1)
    keys = [
        reference.hilbert_index(tuple(lo + hi for lo, hi in zip(r.lows, r.highs)), bits)
        for r, _, _ in items
    ]
    return sorted(range(len(items)), key=keys.__getitem__)


def oracle_tree(items, max_entries):
    """``(root, height)`` of the reference tree over ``items``."""
    return reference.pack(oracle_items(items), hilbert_order(items), max_entries)


def assert_matches_oracle(tree, oracle, query, min_count=None):
    """Same hit set, same counts and the exact same ``nodes_visited``."""
    hits = tree.search_hits(query, min_count=min_count)
    expected, visited = reference.search(
        *oracle, query.lows, query.highs, min_count
    )
    assert sorted(hits.rows.tolist()) == sorted(expected)
    assert hits.nodes_visited == visited
    assert np.array_equal(hits.rows, tree.payload_rows[hits.slots])
    assert np.array_equal(hits.counts, tree.levels[-1].counts[hits.slots])
    return hits


@pytest.fixture()
def loaded():
    rng = random.Random(7)
    items = random_items(rng, 300)
    tree = pack_hilbert(*as_arrays(items), max_entries=6)
    return tree, items, rng


def test_search_matches_brute_force(loaded):
    tree, items, rng = loaded
    for _ in range(60):
        q = random_query(rng)
        assert sorted(tree.search_hits(q).rows.tolist()) == brute(items, q)


def test_supported_search_matches_brute_force(loaded):
    tree, items, rng = loaded
    for _ in range(60):
        q = random_query(rng)
        mc = rng.randrange(1, 50)
        got = sorted(tree.search_hits(q, min_count=mc).rows.tolist())
        assert got == brute(items, q, mc)


def test_size_and_height(loaded):
    tree, items, _ = loaded
    assert len(tree) == len(items)
    assert tree.height == oracle_tree(items, 6)[1] == 4  # 300 boxes, fan-out 6
    assert sorted(tree.payload_rows.tolist()) == list(range(len(items)))


def test_node_capacity_invariant(loaded):
    """No node overflows the fan-out and none is empty."""
    tree, _, _ = loaded
    for level in tree.levels:
        sizes = np.diff(level.node_offsets)
        assert sizes.min() >= 1 and sizes.max() <= 6


def test_mbr_invariant(loaded):
    """Every level's arrays equal the oracle's: a leaf entry is its box and
    count, an internal entry the MBR and maximum count of its child."""
    tree, items, _ = loaded
    expected = reference.level_arrays(*oracle_tree(items, 6))
    assert len(tree.levels) == len(expected)
    for level, (offsets, lows, highs, counts) in zip(tree.levels, expected):
        assert level.node_offsets.tolist() == offsets
        assert level.lows.tolist() == lows
        assert level.highs.tolist() == highs
        assert level.counts.tolist() == counts
    tree.verify(*as_arrays(items))


def test_nodes_visited_reported(loaded):
    """``nodes_visited`` is the oracle's recursive count, exactly."""
    tree, items, rng = loaded
    oracle = oracle_tree(items, 6)
    full = Rect((0, 0, 0), (7, 5, 9))
    assert tree.search_hits(full).nodes_visited >= tree.height
    for query in [full] + [random_query(rng) for _ in range(40)]:
        for mc in (None, rng.randrange(1, 50)):
            assert_matches_oracle(tree, oracle, query, mc)


def test_level_stats(loaded):
    tree, items, _ = loaded
    stats = SupportedRTree(tree, max_entries=6).level_stats()
    levels = reference.level_arrays(*oracle_tree(items, 6))[::-1]  # leaf first
    assert [s.level for s in stats] == list(range(tree.height))
    for stat, (offsets, lows, highs, _) in zip(stats, levels):
        nodes = list(zip(offsets, offsets[1:]))
        assert stat.n_nodes == len(nodes)
        for d, avg in enumerate(stat.avg_extents):
            extents = [
                max(h[d] for h in highs[a:b]) - min(l[d] for l in lows[a:b]) + 1
                for a, b in nodes
            ]
            assert avg == pytest.approx(sum(extents) / len(extents))


def test_validation():
    lows, highs, counts = as_arrays(random_items(random.Random(1), 10))
    with pytest.raises(IndexError_):
        pack_hilbert(lows, highs, counts, max_entries=1)
    with pytest.raises(IndexError_):
        pack_hilbert(lows, highs[:, :2], counts)
    with pytest.raises(IndexError_):
        pack_hilbert(lows, highs, counts[:-1])
    with pytest.raises(IndexError_):
        pack_hilbert(lows[:, :0], highs[:, :0], counts)
    tree = pack_hilbert(lows, highs, counts)
    with pytest.raises(IndexError_):
        tree.search_hits(Rect((0,), (0,)))
