"""The masked kernel counts what the dense projection counts.

A request's support kernel is built two ways
(:class:`repro.kernels.FocalKernel`): :meth:`~FocalKernel.masked` ANDs
every item row with the focal row over the table's full tidset width,
the delta view's masked rows a second block of words after the main
ones — what the profile and the five MIP plans count on — and
:meth:`~FocalKernel.project` repacks them into dense ``|D^Q|``-bit
blocks — what ARM mines and counts on.  Checked here on random tables
and focal subsets (empty, full, a single record, random regions; table
sizes on and off a multiple of 64), over a pristine index and over a
live delta of appends and deletes:

* both kernels give the same item supports (``popcount_rows``), the same
  sub-itemset cells on the table-gather path (the MIP plans' closed
  mode) and on the named path with and without ``floor``, and the same
  ARM floor and finish — and the supports are the oracle's;
* all six plans, closed and expanded, return ``tests/oracle.py``'s
  answer for their family (an empty focal subset: every plan refuses).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.costs import ArmFloor, _arm_chain, _arm_finish, _arm_floor
from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index, mip_sources
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from tests import oracle
from tests.property.test_oracle import assert_plans_match_oracle, make_table

#: Table sizes at, around and away from a word boundary.
SIZES = st.one_of(
    st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129]),
    st.integers(3, 140),
)


@st.composite
def cases(draw):
    """A skewed table whose attribute 0 keeps one value spare, a focal
    subset kind, and optionally a live delta of appends and deletes.

    The spare value is held by one record at most (``single``; none for
    ``empty``), so selecting it pins that record alone."""
    n_attrs = draw(st.integers(2, 4))
    cards = [draw(st.integers(2, 3)) for _ in range(n_attrs)]
    n_rows = draw(SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))

    def draw_rows(n):
        return [
            tuple(int(min(rng.geometric(0.55) - 1, card - 1))
                  for card in cards)
            for _ in range(n)
        ]

    rows = draw_rows(n_rows)
    appended, deleted = [], []
    if draw(st.booleans()):
        appended = draw_rows(draw(st.one_of(
            st.integers(1, 6), st.integers(63, 70)
        )))
        n_total = n_rows + len(appended)
        deleted = sorted(draw(
            st.sets(st.integers(0, n_total - 1), max_size=5)
        ))
    kind = draw(st.sampled_from(["empty", "full", "single", "random"]))
    spare = cards[0]
    everything = rows + appended
    if kind == "single":
        tid = draw(st.integers(0, len(everything) - 1))
        everything[tid] = (spare, *everything[tid][1:])
        selections = {0: frozenset({spare})}
    elif kind == "empty":
        selections = {0: frozenset({spare})}
    elif kind == "full":
        selections = {}
    else:
        attr = draw(st.integers(0, n_attrs - 1))
        selections = {attr: frozenset(draw(
            st.sets(st.integers(0, cards[attr] - 1), min_size=1)
        ))}
    query = LocalizedQuery(
        range_selections=selections,
        minsupp=draw(st.sampled_from([0.1, 0.25, 0.4, 0.6])),
        minconf=draw(st.sampled_from([0.0, 0.5, 0.8])),
        item_attributes=draw(st.one_of(
            st.none(),
            st.sets(st.integers(0, n_attrs - 1), min_size=2).map(frozenset),
        )),
    )
    primary = draw(st.sampled_from([0.1, 0.2, 0.35]))
    cards[0] += 1  # the spare value
    return (cards, everything[:n_rows], everything[n_rows:], deleted,
            query, primary)


def setup(case):
    """``(index, delta store or None, stored rows, live rows, appended
    live rows, query)`` of a case."""
    cards, rows, appended, deleted, query, primary = case
    index = build_mip_index(make_table(cards, rows), primary)
    mx = None
    if appended:
        mx = MaintainedIndex(index)
        mx.append(appended)
        mx.delete(deleted)
    everything = rows + appended
    live = [row for tid, row in enumerate(everything) if tid not in deleted]
    fresh = [
        row for tid, row in enumerate(everything)
        if tid >= len(rows) and tid not in deleted
    ]
    return index, mx, rows, live, fresh, query


def assert_same_cells(a, b):
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


def random_sources(rng, n_items, n_sources):
    """Right-padded ascending id rows of one to four items."""
    rows = []
    for _ in range(n_sources):
        ids = sorted(rng.choice(n_items, rng.integers(1, 5), replace=False))
        rows.append(ids + [n_items] * (4 - len(ids)))
    return np.asarray(rows, dtype=np.intp).reshape(-1, 4)


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(0, 2**16))
def test_masked_and_projected_kernels_count_alike(case, seed):
    index, mx, _stored, live, _fresh, query = setup(case)
    focus = resolve_focal(index, query, mx)
    masked, projected = focus.kernel(), focus.projection()
    schema = index.table.schema
    n_items = schema.n_items
    dq = oracle.focal_rows(live, query)
    assert masked.dq_size == projected.dq_size == len(dq)
    # One block of words per universe that has focal records — the
    # table's width, then the delta buffer's — and one spare word when
    # neither has any.
    blocks = [index.tidset_words] * (focus.main_dq_size > 0)
    if focus.delta is not None and focus.delta.dq_size:
        blocks.append(mx.buffer.words)
    assert masked.words == (sum(blocks) or 1)

    # Item supports, against each other and the oracle.
    supports = kernels.popcount_rows(masked.matrix)
    assert np.array_equal(supports, kernels.popcount_rows(projected.matrix))
    assert supports.tolist() == [
        oracle.support(dq, (item,)) for item in schema.items_by_id
    ]

    # The MIP plans' closed mode: cells gathered from the index's table.
    rows = np.arange(index.n_mips)
    sources = mip_sources(index, rows)[0]
    table = index.subset_table
    assert_same_cells(
        masked.count_subset_lattice(sources, table=table, rows=rows),
        projected.count_subset_lattice(sources, table=table, rows=rows),
    )

    # The named path, with and without a floor.
    rng = np.random.default_rng(seed)
    named = random_sources(rng, n_items, int(rng.integers(0, 12)))
    cells = masked.count_subset_lattice(named)
    assert_same_cells(cells, projected.count_subset_lattice(named))
    for j in range(len(cells)):
        source = cells.ids[j][:cells.widths[j]]
        full = cells.offsets[j] + (1 << int(cells.widths[j])) - 1
        items = tuple(schema.items_by_id[i] for i in source)
        assert cells.counts[full] == oracle.support(dq, items)
    floor = focus.min_count
    assert_same_cells(
        masked.count_subset_lattice(named, floor=floor),
        projected.count_subset_lattice(named, floor=floor),
    )

    # ARM's chain and finish measure the same structure on either form.
    spans = [
        (base, base + card)
        for base, card in zip(schema.item_bases, schema.cardinalities())
    ]
    f1 = _arm_floor(supports.tolist(), spans, floor)
    if isinstance(f1, ArmFloor):
        chains = [
            _arm_chain(f1, tidsets, floor)
            for tidsets in (focus.item_tidsets(), projected.item_tidsets())
        ]
        assert chains[0] == chains[1]
        assert _arm_finish(chains[0], focus.item_tidsets(), floor) == (
            _arm_finish(chains[1], projected.item_tidsets(), floor)
        )
    focus.release()


@settings(max_examples=40, deadline=None)
@given(cases())
def test_six_plans_equal_the_oracle_on_the_masked_kernel(case):
    index, mx, stored, live, fresh, query = setup(case)
    if not oracle.focal_rows(live, query):
        for kind in PlanKind:
            for expand in (False, True):
                with pytest.raises(QueryError):
                    execute_plan(kind, index, query, expand=expand, delta=mx)
        return
    n_delta = len(oracle.focal_rows(fresh, query))
    assert_plans_match_oracle(mx or index, stored, live, n_delta, query)
