"""Multi-query optimization (the paper's future-work item (b)).

Analysts exploring local trends fire many related requests: the same focal
subset probed at several thresholds, or several subsets sharing range
attributes.  This extension executes a *batch* of localized queries while
sharing work across them:

* queries with identical range selections share the FOCUS step (focal
  tidset) and a single R-tree SEARCH — each query then applies its own
  thresholds to the shared candidate list;
* within a shared group, all candidates' exact local counts come from one
  batched kernel call and are sorted once descending, so each query's
  ELIMINATE is a prefix cut instead of a full pass;
* the *focal projection* (:class:`repro.kernels.FocalKernel` — the dense
  ``|D^Q|``-bit repack of the item tidsets) is built once per distinct
  focal subset and shared by every query in the group, so only the first
  query of a group pays the projection cost;
* in closed mode, the *subset-lattice counts* of a group's sources
  (:meth:`~repro.kernels.FocalKernel.count_subset_lattice`) are one
  table: every source any query of the group qualifies is counted once,
  and each query extracts its rules from its own rows of that table.

Focal-subset grouping is *canonical*: selections naming an attribute's
entire domain are dropped from the group key, so queries that select the
same records — one spelling the full domain out, one omitting it — share
one group (and ``n_groups`` counts distinct focal subsets, not distinct
spellings).

``execute_batch`` reports per-query results plus the work actually shared
(including the projection- and lattice-hit rates), and the tests compare
its output against one-at-a-time execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.core.focal import resolve_focal
from repro.core.mipindex import MIPIndex
from repro.core.operators import (
    QualifiedArray,
    QueryContext,
    _aitem_mask,
    _rules_from_qualified,
    mip_sources,
)
from repro.core.query import LocalizedQuery, canonical_focal_key
from repro.errors import QueryError
from repro.itemsets.rules import RuleBlock, rules_from_subset_lattices

__all__ = ["BatchItem", "BatchReport", "execute_batch"]


@dataclass
class BatchItem:
    """Result of one query inside a batch."""

    query: LocalizedQuery
    rules: RuleBlock
    dq_size: int
    shared_group: int  # index of the focal-subset group this query joined


@dataclass
class BatchReport:
    """All batch results plus sharing diagnostics."""

    items: list[BatchItem]
    n_groups: int           # distinct focal subsets actually computed
    n_searches: int         # R-tree searches actually executed
    elapsed: float
    n_projections: int = 0  # focal projections actually built
    projection_hits: int = 0  # queries served by an already-built projection
    lattice_hits: int = 0   # source lattices read again off a group's table

    @property
    def n_queries(self) -> int:
        return len(self.items)


def execute_batch(
    index: MIPIndex,
    queries: list[LocalizedQuery],
    expand: bool = False,
) -> BatchReport:
    """Execute a batch of localized queries with shared focal subsets."""
    if not queries:
        raise QueryError("empty query batch")
    start = time.perf_counter()

    groups: dict[tuple, int] = {}
    group_data: list[dict] = []
    n_projections = 0
    projection_hits = 0
    lattice_hits = 0
    cards = index.cardinalities

    asked = []  # per query: its group, context and qualified MIPs
    for qi, query in enumerate(queries):
        query.validate_against(index.table.schema)
        # Canonical focal key (shared with the cache and the serving
        # layer): a selection spanning an attribute's whole domain selects
        # nothing, so it is dropped — otherwise queries naming the same
        # focal subset differently (e.g. differing only in thresholds
        # after a full-domain spelling) split into separate groups and
        # n_groups overcounts distinct subsets.
        key = canonical_focal_key(query.range_selections, cards)
        if key not in groups:
            focus = resolve_focal(index, query)
            if focus.dq_size == 0:
                raise QueryError(f"query {qi}: focal subset is empty")
            rows = _group_candidate_rows(index, focus.focal)
            # One batched record-level pass: every candidate's exact local
            # count, shared by all queries of the group and pre-sorted
            # descending so each query's threshold is a prefix cut.
            if len(rows):
                counts = kernels.and_count(
                    index.mip_tidset_matrix.take(rows, axis=0),
                    focus.packed_dq(),
                ).astype(np.int64)
                order = np.argsort(-counts, kind="stable")
                rows, counts = rows[order], counts[order]
            else:
                counts = np.zeros(0, dtype=np.int64)
            groups[key] = len(group_data)
            focus.kernel()  # the group's one projection, built up front
            group_data.append({
                # The group's resolution; every query of the group reads
                # its packed row and projection (``rethreshold`` shares
                # them).
                "focus": focus,
                "rows": rows,
                "counts": counts,
                "qualified": np.zeros(len(rows), dtype=bool),
            })
            n_projections += 1
        else:
            projection_hits += 1
        gid = groups[key]
        data = group_data[gid]
        focus = data["focus"].rethreshold(query)
        # Counts are sorted descending: qualified candidates are a prefix.
        n_keep = int(
            np.searchsorted(-data["counts"], -focus.min_count, side="right")
        )
        ctx = QueryContext(index=index, query=query, focus=focus, expand=expand)
        keep = np.flatnonzero(_aitem_mask(ctx, data["rows"][:n_keep]))
        data["qualified"][keep] = True
        asked.append((gid, ctx, keep))

    tables = [
        None if expand else _count_group(data, index) for data in group_data
    ]
    items = []
    for gid, ctx, keep in asked:
        data = group_data[gid]
        if tables[gid] is None:
            rules, _lookups, _kernel_s = _rules_from_qualified(
                ctx, QualifiedArray(data["rows"][keep], data["counts"][keep])
            )
        else:
            rules, n_sources = _rules_from_table(ctx, tables[gid], keep)
            lattice_hits += n_sources
        items.append(BatchItem(
            query=ctx.query, rules=rules, dq_size=ctx.dq_size,
            shared_group=gid,
        ))
    # Every source was counted once; each other use of it was a replay.
    lattice_hits -= sum(
        len(members) for table in tables if table is not None
        for members, _ in table
    )

    return BatchReport(
        items=items,
        n_groups=len(group_data),
        n_searches=len(group_data),
        elapsed=time.perf_counter() - start,
        n_projections=n_projections,
        projection_hits=projection_hits,
        lattice_hits=lattice_hits,
    )


def _count_group(data: dict, index: MIPIndex) -> list:
    """Closed mode: the group's one sub-itemset table over every source a
    query of the group qualified, as ``(members, group)`` per width group
    of :meth:`~repro.kernels.FocalKernel.count_subset_lattice` —
    ``members[j]`` is the candidate whose source is the group's row
    ``j``."""
    counted = np.flatnonzero(data["qualified"])
    sources, widths = mip_sources(index, data["rows"][counted])
    wide = widths >= 2  # MIPs of fewer than two items are no source
    if not wide.any():
        return []
    groups = data["focus"].kernel().count_subset_lattice(sources[wide])
    # The kernel groups sources by width, ascending, keeping their order.
    counted, widths = counted[wide], widths[wide]
    return [(counted[widths == group[0].shape[1]], group) for group in groups]


def _rules_from_table(
    ctx: QueryContext, table: list, keep: np.ndarray
) -> tuple[RuleBlock, int]:
    """The rules of the qualified candidates ``keep`` extracted from their
    rows of the group's table — the same
    :func:`rules_from_subset_lattices` call as the per-query path, over
    positions from one table, so the rule sets are byte-identical.
    Returns ``(rules, sources read)``."""
    mine = []
    for members, group in table:
        rows = np.flatnonzero(np.isin(members, keep))
        if len(rows):
            mine.append(tuple(array[rows] for array in group))
    rules = rules_from_subset_lattices(
        mine, ctx.dq_size, ctx.query.minconf, schema=ctx.index.table.schema,
    )
    return rules, sum(len(ids) for ids, _, _ in mine)


def _group_candidate_rows(index: MIPIndex, focal) -> np.ndarray:
    """MIP rows overlapping ``focal``.

    Mirrors the SEARCH operator: hull probe of the R-tree, then exact
    vectorized re-classification against the true per-attribute value
    sets.
    """
    rows = index.rtree.search_arrays(focal.hull()).rows.astype(
        np.intp, copy=False
    )
    if not len(rows):
        return rows
    overlaps, _contained = focal.classify_all(
        index.stats.mip_fixed_values.take(rows, axis=0)
    )
    return rows[overlaps]
