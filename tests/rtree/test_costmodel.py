"""Theodoridis-Sellis expected node accesses and Lemma 4.1.

The node-access estimate is the scalar reference
:func:`tests.rtree.reference.expected_node_accesses` (SEARCH reads no tree,
so nothing in ``src/`` prices node accesses); it is held to the measured
traversal here.
"""

import random

import pytest

from repro.errors import DataError
from repro.rtree.costmodel import expected_leaf_matches
from repro.rtree.supported import SupportedRTree
from tests.rtree.reference import (
    LevelStat,
    expected_node_accesses,
    extents,
    level_stats,
)
from tests.rtree.test_rtree import as_arrays, random_items, random_query


def test_empty_stats():
    assert expected_node_accesses([], [1.0], [4]) == 0.0


def test_root_only():
    stats = [LevelStat(level=0, n_nodes=1, avg_extents=(2.0,))]
    assert expected_node_accesses(stats, [1.0], [4]) == 1.0


def test_monotone_in_query_extent():
    stats = [
        LevelStat(level=0, n_nodes=20, avg_extents=(2.0, 2.0)),
        LevelStat(level=1, n_nodes=4, avg_extents=(4.0, 4.0)),
        LevelStat(level=2, n_nodes=1, avg_extents=(8.0, 8.0)),
    ]
    cards = (8, 8)
    small = expected_node_accesses(stats, (1.0, 1.0), cards)
    large = expected_node_accesses(stats, (6.0, 6.0), cards)
    assert small < large


def test_probability_clamped():
    """Huge extents cannot push per-node probability above 1."""
    stats = [
        LevelStat(level=0, n_nodes=10, avg_extents=(100.0,)),
        LevelStat(level=1, n_nodes=1, avg_extents=(100.0,)),
    ]
    # all 10 leaf-level nodes + the root, never more
    assert expected_node_accesses(stats, (100.0,), (4,)) == 11.0


def test_matches_measured_accesses_roughly():
    """The model should land within ~3x of measured node accesses."""
    rng = random.Random(2)
    items = random_items(rng, 500)
    tree = SupportedRTree.build(*as_arrays(items), max_entries=8)
    stats = level_stats(tree.flat)
    cards = (8, 6, 10)

    total_est = total_meas = 0.0
    for _ in range(50):
        q = random_query(rng)
        total_est += expected_node_accesses(stats, extents(q), cards)
        total_meas += tree.search_arrays(q).nodes_visited
    ratio = total_est / total_meas
    assert 1 / 3 < ratio < 3, ratio


def test_expected_leaf_matches_lemma41():
    # 100 boxes of avg extent 2 in a domain of 10: query extent 3
    # -> N * (2/10 + 3/10) = 50
    assert expected_leaf_matches(100, [2.0], [3.0], [10]) == pytest.approx(50.0)
    # factors clamp at 1
    assert expected_leaf_matches(100, [20.0], [30.0], [10]) == 100.0


def test_validation():
    with pytest.raises(DataError):
        expected_leaf_matches(10, [1.0], [1.0, 2.0], [4])
    with pytest.raises(DataError):
        expected_leaf_matches(10, [1.0], [1.0], [0])
    with pytest.raises(DataError):
        expected_leaf_matches(10, [1.0], [-1.0], [4])
    with pytest.raises(DataError):
        expected_leaf_matches(10, [1.0, 1.0], [1.0], [4])
