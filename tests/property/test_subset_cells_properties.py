"""Property tests: rule generation is one flat pass over the request's cells.

:meth:`repro.kernels.FocalKernel.count_subset_lattice` returns one
:class:`repro.kernels.SubsetCells` layout — the sources by ascending
width, each followed by its ``2**width`` cells — and
:func:`repro.itemsets.rules.rules_from_subset_lattices` extracts from it
in one pass: antecedent cell ``c``, consequent cell ``s + e - c``.  On
random tables, focal subsets and mixed-width sources (some held by no
focal record):

* the layout lists the sources in that order, with their offsets, and
  every cell counts its sub-itemset as a scan of the focal rows does;
* the rules equal the brute-force ones (``tests/oracle.py``), at any
  ``minconf`` from 0 to 1, in closed mode with and without a
  ``min_count`` floor and in expanded mode;
* they are ``RuleBlock.pack()``-identical to a per-source reference that
  splits one source at a time, with its sources in layout order;
* a chunk bound cut down to a few cells (so chunk edges fall inside every
  request) changes no byte;
* a cached lattice replays the same block, from the layout as counted
  and as the cache stores it (``SubsetCells.narrowed``), and
  ``split_counts`` reads the block's rules back against the same kernel
  as the oracle counts them.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tidset as ts
from repro.cache import CachedLattice, RuleCache
from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index, mip_sources
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable
from repro.itemsets import rules as rules_module
from repro.itemsets.rules import (
    RuleBlock,
    rules_from_subset_lattices,
    split_counts,
)
from tests import oracle
from tests.conftest import make_random_table
from tests.itemsets.enumerations import focal_kernel, focal_rows, per_source


@st.composite
def cases(draw):
    """A skewed random table, a focal subset (possibly empty) and
    distinct right-padded sources of mixed widths: some are a random
    record's items (held in the table), some random values (often held
    by no record at all)."""
    n_attributes = draw(st.integers(min_value=2, max_value=6))
    n_values = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    n_records = draw(st.sampled_from([1, 20, 64, 65, 120]))
    data = np.minimum(
        rng.geometric(0.6, size=(n_records, n_attributes)) - 1, n_values - 1
    ).astype(np.int32)
    schema = Schema(tuple(
        Attribute(f"a{a}", tuple(f"v{v}" for v in range(n_values)))
        for a in range(n_attributes)
    ))
    table = RelationalTable(schema, data)
    dq = ts.from_tids(np.flatnonzero(
        rng.random(n_records) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    ).tolist())
    sources = set()
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        width = int(rng.integers(1, n_attributes + 1))
        attrs = np.sort(rng.choice(n_attributes, size=width, replace=False))
        if rng.random() < 0.7:
            values = data[rng.integers(n_records)][attrs]
        else:
            values = rng.integers(0, n_values, size=width)
        ids = (attrs * n_values + values).tolist()
        sources.add(tuple(ids + [schema.n_items] * (n_attributes - width)))
    sources = sorted(sources, key=lambda _: rng.random())
    return table, dq, sources


def itemset(schema, ids):
    return tuple(schema.items_by_id[i] for i in ids)


def oracle_rules(table, dq, sources, minconf, floor):
    """The oracle's rules of the sources that reach ``floor`` in ``dq``."""
    rows = focal_rows(table, dq)
    kept = [s for s in sources if oracle.support(rows, s) >= floor]
    return oracle.rules_from(kept, rows, minconf)


def per_source_block(cells, schema, dq_size, minconf, floor):
    """The rules of ``cells`` split one source at a time, in plain
    Python, as a block listing its sources in layout order."""
    found = []
    for j, (ids, counts, _) in enumerate(per_source(cells)):
        n, full = len(ids), len(counts) - 1
        if n < 2 or counts[full] < floor:
            continue
        for mask in range(1, full):
            confidence = counts[full] / counts[mask]
            if confidence >= minconf:
                antecedent = tuple(i for b, i in enumerate(ids) if mask >> b & 1)
                consequent = tuple(i for b, i in enumerate(ids) if not mask >> b & 1)
                found.append(((antecedent, consequent), j, mask, counts[full],
                              confidence))
    found.sort()
    used = sorted({j for _, j, *_ in found})
    sources = [itemset(schema, row[:n]) for row, n in zip(
        cells.ids[used].tolist(), cells.widths[used].tolist()
    )]
    return RuleBlock(
        sources,
        [used.index(j) for _, j, *_ in found],
        [mask for _, _, mask, *_ in found],
        [count for *_, count, _ in found],
        [count / dq_size if dq_size else 0.0 for *_, count, _ in found],
        [confidence for *_, confidence in found],
    )


def assert_layout(cells, table, dq, sources, n_items):
    """Sources by ascending width, input order within a width; offsets
    are the running sum of ``2**width``; every cell counts its
    sub-itemset; positions order the sub-itemsets as tuples do."""
    widths = [sum(i < n_items for i in s) for s in sources]
    expected = sorted(
        (w, k) for k, w in enumerate(widths) if w >= 1
    )
    assert cells.widths.tolist() == [w for w, _ in expected]
    assert cells.ids.tolist() == [list(sources[k]) for _, k in expected]
    assert cells.offsets.tolist() == [0, *np.cumsum(
        [1 << w for w, _ in expected], dtype=np.int64
    ).tolist()]
    assert len(cells.counts) == len(cells.order) == cells.offsets[-1]
    assert cells.counts.dtype == cells.order.dtype == np.int32
    rows = focal_rows(table, dq)
    position = {}
    for ids, counts, ranks in per_source(cells):
        for mask, (count, rank) in enumerate(zip(counts, ranks)):
            subset = tuple(i for b, i in enumerate(ids) if mask >> b & 1)
            assert count == oracle.support(rows, itemset(table.schema, subset))
            assert position.setdefault(subset, rank) == rank
    assert sorted(position, key=position.__getitem__) == sorted(position)


def extract(cells, kernel, minconf, min_count, schema):
    return rules_from_subset_lattices(
        cells, kernel.dq_size, minconf, schema=schema, min_count=min_count
    )


def assert_flat_pass(case, minconf, floor, expanded, chunk_cells):
    table, dq, sources = case
    schema = table.schema
    kernel = focal_kernel(table, dq)
    cells = kernel.count_subset_lattice(
        sources, floor=floor if expanded else None
    )
    if not expanded:
        assert_layout(cells, table, dq, sources, schema.n_items)
    min_count = floor if floor > 1 or expanded else None
    rules = extract(cells, kernel, minconf, min_count, schema)

    # The brute force: in expanded mode the sources are the frequent
    # sub-itemsets of two items or more of the given ones.
    named = [itemset(schema, [i for i in s if i < schema.n_items])
             for s in sources]
    if expanded:
        named = {
            sub for s in named for sub in _subsets(s)
            if len(sub) >= 2
            and oracle.support(focal_rows(table, dq), sub) >= floor
        }
    assert rules == oracle_rules(table, dq, named, minconf, floor)

    reference = per_source_block(cells, schema, kernel.dq_size, minconf, floor)
    assert rules.pack() == reference.pack()

    with mock.patch.object(rules_module, "_EXTRACT_CHUNK_CELLS", chunk_cells):
        for layout in (cells, cells.narrowed()):
            chunked = extract(layout, kernel, minconf, min_count, schema)
            assert chunked.pack() == rules.pack()

    for stored in (cells, cells.narrowed()):
        lattice = CachedLattice(stored, kernel.dq_size, min_count, schema)
        assert lattice.extract(minconf).pack() == rules.pack()

    both, antecedent, consequent = split_counts(rules, kernel, schema)
    rows = focal_rows(table, dq)
    for rule, b, a, c in zip(rules, both.tolist(), antecedent.tolist(),
                             consequent.tolist()):
        assert b == rule.support_count == oracle.support(rows, rule.items)
        assert a == oracle.support(rows, rule.antecedent)
        assert c == oracle.support(rows, rule.consequent)
    return rules


def _subsets(items):
    return (
        tuple(i for b, i in enumerate(items) if mask >> b & 1)
        for mask in range(1, 1 << len(items))
    )


@settings(max_examples=80, deadline=None)
@given(
    cases(),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.sampled_from([1, 5, 17]),
)
def test_the_flat_pass_equals_the_oracle_and_the_per_source_reference(
    case, minconf, floor, expanded, chunk_cells
):
    assert_flat_pass(case, minconf, floor, expanded, chunk_cells)


def test_sources_without_local_support_make_no_rule():
    """A source no focal record holds divides by no zero and keeps no
    split, at minconf 0 too; its neighbours still split."""
    schema = Schema(tuple(
        Attribute(f"a{a}", ("x", "y")) for a in range(3)
    ))
    data = np.array([[0, 0, 0]] * 4 + [[1, 1, 0]] * 3, dtype=np.int32)
    table = RelationalTable(schema, data)
    dq = ts.from_tids([0, 1, 2, 3])
    pad = schema.n_items
    sources = [(1, 3, 4), (0, 2, pad), (1, 3, pad), (0, 2, 4)]
    with np.errstate(all="raise"):
        rules = assert_flat_pass((table, dq, sources), 0.0, 1, False, 3)
    assert {len(rule.items) for rule in rules} == {2, 3}
    assert len(rules) == 2 + 6


@pytest.mark.parametrize("minconf", [0.0, 1.0])
def test_a_mip_request_over_every_row(minconf):
    """A built index's MIPs through the table path, all at once, with the
    chunk bound at one cell: every source is its own chunk."""
    table = make_random_table(seed=7, n_records=90,
                              cardinalities=(3, 3, 2, 4, 2))
    index = build_mip_index(table, primary_support=0.05)
    kernel = resolve_focal(
        index, LocalizedQuery({0: frozenset({0, 1})}, 0.1, minconf)
    ).kernel()
    rows = np.random.default_rng(1).permutation(index.n_mips)
    sources, _ = mip_sources(index, rows)
    cells = kernel.count_subset_lattice(
        sources, table=index.subset_table, rows=rows
    )
    rules = extract(cells, kernel, minconf, None, table.schema)
    assert len(rules)
    assert rules.pack() == per_source_block(
        cells, table.schema, kernel.dq_size, minconf, 1
    ).pack()
    with mock.patch.object(rules_module, "_EXTRACT_CHUNK_CELLS", 1):
        assert extract(cells, kernel, minconf, None,
                       table.schema).pack() == rules.pack()
    # Stored read-only in the lattice tier, replayed alike.
    cache = RuleCache(MaintainedIndex(index))
    query = LocalizedQuery({0: frozenset({0, 1})}, 0.1, minconf)
    assert cache.put_lattice(query, CachedLattice(
        cells.narrowed(), kernel.dq_size, None, table.schema
    ))
    assert cache.get_lattice(query).extract(minconf).pack() == rules.pack()
