"""Packed (bulk-loaded) R-trees: correctness and utilization."""

import random

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.rtree.geometry import Rect
from repro.rtree.packing import pack_hilbert
from tests.rtree import reference
from tests.rtree.test_rtree import (
    as_arrays,
    assert_matches_oracle,
    brute,
    oracle_tree,
    random_items,
    random_query,
)


@pytest.mark.parametrize("packer", [pack_hilbert])
def test_packed_search_matches_brute_force(packer):
    rng = random.Random(3)
    items = random_items(rng, 400)
    tree = packer(*as_arrays(items), max_entries=8)
    assert len(tree) == 400
    for _ in range(60):
        q = random_query(rng)
        assert sorted(tree.search_hits(q).rows.tolist()) == brute(items, q)


@pytest.mark.parametrize("packer", [pack_hilbert])
def test_packed_utilization(packer):
    """Kamel-Faloutsos packing fills all but the last node at each level."""
    rng = random.Random(4)
    items = random_items(rng, 250)
    tree = packer(*as_arrays(items), max_entries=8)
    for level in tree.levels:
        sizes = np.diff(level.node_offsets)
        assert (sizes[:-1] == 8).all() and 1 <= sizes[-1] <= 8


@pytest.mark.parametrize("packer", [pack_hilbert])
def test_packed_height_is_minimal(packer):
    rng = random.Random(5)
    items = random_items(rng, 64)
    tree = packer(*as_arrays(items), max_entries=8)
    assert tree.height == 2  # 64 leaves entries / 8 = 8 leaves -> 1 root


@pytest.mark.parametrize("packer", [pack_hilbert])
def test_packed_counts_aggregate(packer):
    """Every internal entry carries the box and maximum count of its child."""
    rng = random.Random(6)
    items = random_items(rng, 100)
    tree = packer(*as_arrays(items), max_entries=8)
    for upper, lower in zip(tree.levels, tree.levels[1:]):
        for j, (a, b) in enumerate(
            zip(lower.node_offsets, lower.node_offsets[1:])
        ):
            assert upper.counts[j] == lower.counts[a:b].max()
            assert (upper.lows[j] == lower.lows[a:b].min(axis=0)).all()
            assert (upper.highs[j] == lower.highs[a:b].max(axis=0)).all()


@pytest.mark.parametrize("packer", [pack_hilbert])
def test_packed_empty(packer):
    tree = packer(np.zeros((0, 2), np.int64), np.zeros((0, 2), np.int64), [])
    assert len(tree) == 0 and tree.height == 1
    hits = assert_matches_oracle(tree, reference.pack([], [], 8), Rect((0, 0), (1, 1)))
    assert len(hits) == 0 and hits.nodes_visited == 1
    tree.verify(np.zeros((0, 2), np.int64), np.zeros((0, 2), np.int64),
                np.zeros(0, np.int64))


@pytest.mark.parametrize("packer", [pack_hilbert])
def test_packed_single(packer):
    items = [(Rect((1, 1), (2, 2)), 0, 5)]
    tree = packer(*as_arrays(items, n_dims=2))
    assert len(tree) == 1
    oracle = oracle_tree(items, 8)
    assert assert_matches_oracle(
        tree, oracle, Rect((0, 0), (3, 3))
    ).rows.tolist() == [0]
    assert len(assert_matches_oracle(tree, oracle, Rect((0, 0), (3, 3)), 6)) == 0
    assert len(assert_matches_oracle(tree, oracle, Rect((3, 3), (3, 3)))) == 0


def test_pack_rejects_dim_mismatch():
    with pytest.raises(IndexError_):
        pack_hilbert(np.zeros((1, 3), np.int64), np.zeros((1, 1), np.int64), [1])


def test_hilbert_pack_order_is_the_scalar_key_order():
    """Leaves hold the items in the (stable) order of their scalar Hilbert
    keys — the order the per-box key loop produced before the vectorized
    pass, ties included — and every level's arrays are the oracle's."""
    rng = random.Random(11)
    items = random_items(rng, 300)
    items += [(rect, 300 + k, 1) for k, (rect, _, _) in enumerate(items[:40])]
    tree = pack_hilbert(*as_arrays(items), max_entries=8)
    root, height = oracle_tree(items, 8)
    expected = reference.level_arrays(root, height)
    leaves = [e[3] for node in _leaf_nodes(root, height) for e in node]
    assert tree.payload_rows.tolist() == leaves
    assert tree.payload_rows.dtype == np.int64
    assert [
        (lv.node_offsets.tolist(), lv.lows.tolist(), lv.highs.tolist(),
         lv.counts.tolist())
        for lv in tree.levels
    ] == [tuple(level) for level in expected]


def _leaf_nodes(node, height):
    if height == 1:
        return [node]
    return [leaf for e in node for leaf in _leaf_nodes(e[3], height - 1)]
