"""Packed (bulk-loaded) R-trees: correctness and utilization."""

import random

import pytest

from repro.errors import IndexError_
from repro.rtree.geometry import Rect
from repro.rtree.packing import pack_hilbert, pack_str
from tests.rtree.test_rtree import brute, random_items, random_query


@pytest.mark.parametrize("packer", [pack_hilbert, pack_str])
def test_packed_search_matches_brute_force(packer):
    rng = random.Random(3)
    items = random_items(rng, 400)
    tree = packer(3, items, max_entries=8)
    assert len(tree) == 400
    for _ in range(60):
        q = random_query(rng)
        got = sorted(e.payload for e in tree.search(q).entries)
        assert got == brute(items, q)


@pytest.mark.parametrize("packer", [pack_hilbert, pack_str])
def test_packed_utilization(packer):
    """Kamel-Faloutsos packing fills all but the last node at each level."""
    rng = random.Random(4)
    items = random_items(rng, 256)
    tree = packer(3, items, max_entries=8)
    stack = [tree.root]
    per_level = {}
    while stack:
        node = stack.pop()
        per_level.setdefault(node.level, []).append(len(node.entries))
        if not node.is_leaf:
            stack.extend(e.child for e in node.entries)
    for level, sizes in per_level.items():
        underfull = [s for s in sizes if s < 8]
        assert len(underfull) <= 1, (level, sizes)


@pytest.mark.parametrize("packer", [pack_hilbert, pack_str])
def test_packed_height_is_minimal(packer):
    rng = random.Random(5)
    items = random_items(rng, 64)
    tree = packer(3, items, max_entries=8)
    assert tree.height == 2  # 64 leaves entries / 8 = 8 leaves -> 1 root


@pytest.mark.parametrize("packer", [pack_hilbert, pack_str])
def test_packed_counts_aggregate(packer):
    rng = random.Random(6)
    items = random_items(rng, 100)
    tree = packer(3, items, max_entries=8)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        for entry in node.entries:
            assert entry.count == entry.child.max_count()
            stack.append(entry.child)


@pytest.mark.parametrize("packer", [pack_hilbert, pack_str])
def test_packed_empty(packer):
    tree = packer(2, [])
    assert len(tree) == 0
    assert tree.search(Rect((0, 0), (1, 1))).entries == []


@pytest.mark.parametrize("packer", [pack_hilbert, pack_str])
def test_packed_single(packer):
    tree = packer(2, [(Rect((1, 1), (2, 2)), "x", 5)])
    assert len(tree) == 1
    assert tree.search(Rect((0, 0), (3, 3))).entries[0].payload == "x"


def test_pack_rejects_dim_mismatch():
    with pytest.raises(IndexError_):
        pack_hilbert(3, [(Rect((0,), (0,)), 1, 1)])


def test_hilbert_pack_order_is_the_scalar_key_order():
    """Leaves hold the items in the (stable) order of their scalar Hilbert
    keys — the order the per-box key loop produced before the vectorized
    pass, ties included."""
    from repro.rtree.hilbert import bits_needed, hilbert_index

    rng = random.Random(11)
    items = random_items(rng, 300)
    items += [(rect, 1000 + k, 1) for k, (rect, _, _) in enumerate(items[:40])]
    bits = bits_needed(max(max(r.highs) for r, _, _ in items) * 2 + 1)
    expected = sorted(
        items,
        key=lambda it: hilbert_index(
            tuple(lo + hi for lo, hi in zip(it[0].lows, it[0].highs)), bits
        ),
    )
    tree = pack_hilbert(3, items, max_entries=8)
    leaves = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(reversed([e.child for e in node.entries]))
    got = [e.payload for leaf in leaves for e in leaf.entries]
    assert got == [payload for _, payload, _ in expected]
