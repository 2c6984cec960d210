"""SEARCH as the paper runs it, for tests only.

Until the request path read SEARCH off the per-value MIP bitmaps
(:meth:`repro.core.stats.IndexStatistics.region_bits`), it probed the
supported R-tree with the focal region's hull — the per-attribute
``[min, max]`` interval around the admitted values, a superset of the
region, so no candidate is lost — and re-classified each hit against
the exact value sets in one vectorized pass.  That descent is kept here
as the reference the bitmap search is held to; :func:`classify_all` is
itself held to the per-box :func:`tests.core.reference_mips.classify`.
"""

from __future__ import annotations

import numpy as np

from repro.core.query import FocalRange
from repro.rtree.geometry import Rect


def hull(focal: FocalRange) -> Rect:
    """Per-dimension [min, max] interval around the admitted values."""
    lows, highs = [], []
    for mask in focal.value_masks:
        lows.append((mask & -mask).bit_length() - 1)
        highs.append(mask.bit_length() - 1)
    return Rect(tuple(lows), tuple(highs))


def classify_all(focal: FocalRange, fixed_values: np.ndarray):
    """``(overlaps, contained)`` boolean arrays of MIP boxes given their
    ``(N, d)`` fixed values (``-1`` = free) against the region."""
    n = fixed_values.shape[0]
    overlaps = np.ones(n, dtype=bool)
    contained = np.ones(n, dtype=bool)
    for dim, (card, mask) in enumerate(
        zip(focal.cardinalities, focal.value_masks)
    ):
        if mask == (1 << card) - 1:
            continue  # full domain: every box overlaps and is contained
        selected = np.asarray([(mask >> v) & 1 for v in range(card)], dtype=bool)
        col = fixed_values[:, dim]
        fixes = col >= 0
        in_sel = np.zeros(n, dtype=bool)
        in_sel[fixes] = selected[col[fixes]]
        overlaps &= ~fixes | in_sel
        contained &= fixes & in_sel
    return overlaps, contained


def descent_search(index, focal: FocalRange, min_count: int | None) -> set:
    """SEARCH (``min_count=None``) or SUPPORTED-SEARCH by R-tree descent
    plus :func:`classify_all`, as a set of ``(row, global_count,
    contained)``."""
    hits = index.rtree.search_arrays(hull(focal), min_count=min_count)
    rows = hits.rows.astype(np.intp, copy=False)
    overlaps, contained = classify_all(
        focal, index.stats.mip_fixed_values.take(rows, axis=0)
    )
    return set(zip(
        rows[overlaps].tolist(),
        hits.counts[overlaps].tolist(),
        contained[overlaps].tolist(),
    ))
