"""Analytical R-tree query cost (Theodoridis, Stefanakis & Sellis [21]).

The expected number of node accesses of a window query is

    NA(q) = 1 + sum over non-root levels j of
            N_j * prod_i min(1, s_{j,i} + q_i)

where ``N_j`` is the node count at level ``j``, ``s_{j,i}`` the average
normalized MBR extent of level-``j`` nodes along dimension ``i`` and
``q_i`` the normalized query extent.  ``s + q`` is the classic Minkowski-sum
probability that a uniformly placed box of extent ``s`` intersects a window
of extent ``q``; each factor is clamped to 1 since probabilities cannot
exceed it.  This powers COST(S) and the SELECT term of COST(ARM) in the
COLARM cost model (Equations 1 and 6).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import DataError
from repro.rtree.flat import LevelStat

__all__ = ["expected_node_accesses", "expected_leaf_matches"]


def expected_node_accesses(
    stats: Sequence[LevelStat],
    query_extents: Sequence[float],
    cardinalities: Sequence[int],
) -> float:
    """Expected nodes visited by a window query of the given cell extents.

    ``query_extents`` are in cells per dimension; ``cardinalities`` are the
    grid domain sizes used to normalize both query and node extents.
    """
    _check(query_extents, cardinalities)
    if not stats:
        return 0.0
    q_norm = [q / c for q, c in zip(query_extents, cardinalities)]
    total = 1.0  # the root is always read
    root_level = max(s.level for s in stats)
    for stat in stats:
        if stat.level == root_level:
            continue
        prob = 1.0
        for dim, (extent, card) in enumerate(zip(stat.avg_extents, cardinalities)):
            prob *= min(1.0, extent / card + q_norm[dim])
        total += stat.n_nodes * prob
    return total


def expected_leaf_matches(
    n_boxes: int,
    avg_box_extents: Sequence[float],
    query_extents: Sequence[float],
    cardinalities: Sequence[int],
) -> float:
    """Lemma 4.1: expected number of stored boxes intersecting the query.

    ``|{I^Q_S}| = N * prod_i min(1, (D^P_avg_i + D^Q_i))`` with all extents
    normalized by the grid cardinalities.
    """
    _check(query_extents, cardinalities)
    if len(avg_box_extents) != len(cardinalities):
        raise DataError("avg_box_extents/cardinalities dimensionality mismatch")
    prob = 1.0
    for box, query, card in zip(avg_box_extents, query_extents, cardinalities):
        prob *= min(1.0, box / card + query / card)
    return n_boxes * prob


def _check(query_extents: Sequence[float], cardinalities: Sequence[int]) -> None:
    if len(query_extents) != len(cardinalities):
        raise DataError("query/cardinalities dimensionality mismatch")
    if any(c <= 0 for c in cardinalities):
        raise DataError("cardinalities must be positive")
    if any(q < 0 for q in query_extents):
        raise DataError("query extents must be non-negative")
