"""SEARCH and SUPPORTED-SEARCH read off the MIP bitmaps equal the descent.

The operators answer from the statistics' per-value MIP bitmaps
(:meth:`repro.core.focal.FocalSubset.region_bits`: one OR per admitted
value and of the free set per partial attribute, a prefix mask for the
supported filter).  ``tests/core/reference_search.py`` keeps what they
replaced — the supported R-tree probed with the region's hull, each hit
re-classified by ``classify_all``.  Compared as sets of ``(row,
global_count, contained)`` over random tables; full-domain, single-value,
all-but-one and random selections, attributes left free; a ``min_count``
of 1, above every MIP, the query's own and the delta-relaxed one; an
index with no MIPs; and the same index after a fold and after ``save``
+ mmap ``load``.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.operators import (
    _search,
    make_context,
    op_search,
    op_supported_search,
)
from repro.core.persistence import load_index, save_index
from repro.core.query import LocalizedQuery
from tests.conftest import make_random_table
from tests.core.reference_search import descent_search


def as_set(candidates) -> set:
    return set(zip(
        candidates.rows.tolist(),
        candidates.global_counts.tolist(),
        candidates.contained.tolist(),
    ))


@st.composite
def selections(draw, cards):
    """Per attribute: left free, the full domain, one value, all but one,
    or any non-empty subset."""
    out = {}
    for a, card in enumerate(cards):
        kind = draw(st.sampled_from(["free", "full", "one", "all-but-one",
                                     "any"]))
        if kind == "full":
            out[a] = frozenset(range(card))
        elif kind == "one":
            out[a] = frozenset({draw(st.integers(0, card - 1))})
        elif kind == "all-but-one":
            gap = draw(st.integers(0, card - 1))
            out[a] = frozenset(range(card)) - {gap} or frozenset({gap})
        elif kind == "any":
            out[a] = frozenset(draw(st.sets(
                st.integers(0, card - 1), min_size=1, max_size=card)))
    return out


@st.composite
def scenarios(draw):
    cards = tuple(draw(st.lists(st.integers(2, 5), min_size=2, max_size=4)))
    table = make_random_table(
        draw(st.integers(0, 2**16)), draw(st.integers(20, 90)), cards
    )
    primary = draw(st.sampled_from([0.03, 0.1, 0.3, 1.0]))
    minsupp = draw(st.sampled_from([0.05, 0.3, 0.8]))
    return table, primary, LocalizedQuery(
        draw(selections(cards)), minsupp, 0.5
    )


def assert_searches_agree(index, query, delta=None):
    """Both operators at the query's own threshold, then SUPPORTED-SEARCH
    at 1 and above every MIP, against the descent."""
    focus = resolve_focal(index, query, delta)
    if focus.dq_size == 0:
        return
    ctx = make_context(index, query, delta=delta, focus=focus)
    focal = focus.focal
    assert as_set(op_search(ctx)) == descent_search(index, focal, None)
    relaxed = focus.min_count
    if focus.delta is not None and focus.delta.dq_size:
        relaxed = max(relaxed - focus.delta.dq_size, 1)
    assert as_set(op_supported_search(ctx)) == descent_search(
        index, focal, relaxed
    )
    above = int(index.global_counts.max(initial=0)) + 1
    for min_count in (1, above):
        got = _search(ctx, "SUPPORTED-SEARCH", min_count)
        assert as_set(got) == descent_search(index, focal, min_count)
    assert len(_search(ctx, "SUPPORTED-SEARCH", above)) == 0


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_bitmap_search_equals_descent(scenario):
    """Any table and query; primary support 1.0 stores few or no MIPs."""
    table, primary, query = scenario
    index = build_mip_index(table, primary_support=primary)
    assert_searches_agree(index, query)
    # Every attribute free: everything overlaps, everything is contained.
    assert_searches_agree(index, LocalizedQuery({}, query.minsupp, 0.5))


def test_no_mips():
    table = make_random_table(seed=3, n_records=40, cardinalities=(4, 4, 4))
    index = build_mip_index(table, primary_support=1.0)
    assert index.n_mips == 0
    query = LocalizedQuery({0: frozenset({1, 2})}, 0.2, 0.5)
    assert_searches_agree(index, query)
    ctx = make_context(index, query)
    assert len(op_search(ctx)) == len(op_supported_search(ctx)) == 0


@settings(max_examples=20, deadline=None)
@given(scenarios(), st.integers(0, 2**16))
def test_relaxed_folded_and_loaded_searches_equal_descent(scenario, seed):
    """A live delta relaxes SUPPORTED-SEARCH's threshold; the fold and an
    mmap-loaded snapshot rebuild the support-order arrays the bitmap
    search reads."""
    table, primary, query = scenario
    mx = MaintainedIndex(
        build_mip_index(table, primary_support=max(primary, 0.05))
    )
    rng = np.random.default_rng(seed)
    cards = table.schema.cardinalities()
    mx.append([[int(rng.integers(0, c)) for c in cards] for _ in range(8)])
    mx.delete([0, 1])
    assert_searches_agree(mx.index, query, delta=mx)
    mx.recompact()
    assert mx.n_pending == 0
    assert_searches_agree(mx.index, query, delta=mx)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.npz"
        save_index(mx.index, path, compress=False)
        loaded, _weights = load_index(path, mmap_mode="r")
        assert np.array_equal(loaded.stats.mip_rows, mx.index.stats.mip_rows)
        assert_searches_agree(loaded, query)
