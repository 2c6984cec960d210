"""Analytical R-tree cardinality (Theodoridis, Stefanakis & Sellis [21]).

A uniformly placed box of normalized extent ``s`` intersects a window of
normalized extent ``q`` with the Minkowski-sum probability
``min(1, s + q)`` per dimension (clamped: probabilities cannot exceed 1).
Over the stored boxes that product gives Lemma 4.1's expected number of
MIPs a window meets (:func:`expected_leaf_matches`); over each non-root
R-tree level it gives the expected node accesses that COST(S) and the
SELECT term of COST(ARM) price (Equations 1 and 6;
:meth:`repro.core.costs.CostModel.est_node_accesses`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import DataError

__all__ = ["expected_leaf_matches"]


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
