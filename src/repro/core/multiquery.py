"""Multi-query batches (the paper's future-work item (b)).

Analysts exploring local trends fire many related requests: one focal
subset probed at several thresholds, or several subsets sharing range
attributes.  Over one focal subset a localized answer is a threshold cut
over exact local statistics, so a tighter ``(minsupp, minconf)`` answer
is a row filter of the loosest one.  :func:`execute_batch` therefore
runs one plan execution per focal group — SS-VS at the group's smallest
minsupp and smallest minconf — and answers each query of the group with
the rows of that block that meet its own thresholds
(:meth:`~repro.itemsets.rules.RuleBlock.meets`, the comparisons
extraction itself applies).  Each answer equals the query's solo answer
rule for rule, in order, in closed and expanded mode: a rule's support
is its union's, so a kept rule comes from a source the query's own run
qualifies too (the union itself in closed mode, its global closure in
expanded mode), and a subset of the block keeps the block's canonical
order.

A group is the queries sharing a *canonical* focal subset and their item
attributes: selections naming an attribute's entire domain are dropped
from the key (:func:`~repro.core.query.canonical_focal_key`, shared with
the cache and the serving layer), so queries selecting the same records
— one spelling the full domain out, one omitting it — share one group,
and ``n_groups`` counts plan executions, not spellings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.core.mipindex import MIPIndex
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery, canonical_focal_key
from repro.errors import QueryError
from repro.itemsets.itemset import min_count_for
from repro.itemsets.rules import RuleBlock

__all__ = ["BatchItem", "BatchReport", "execute_batch"]


@dataclass
class BatchItem:
    """Result of one query inside a batch."""

    query: LocalizedQuery
    rules: RuleBlock
    dq_size: int
    shared_group: int  # index of the focal group this query joined


@dataclass
class BatchReport:
    """All batch results, in query order."""

    items: list[BatchItem]
    n_groups: int  # plan executions, one per focal group
    elapsed: float

    @property
    def n_queries(self) -> int:
        return len(self.items)


def execute_batch(
    index: MIPIndex,
    queries: list[LocalizedQuery],
    expand: bool = False,
) -> BatchReport:
    """Execute a batch of localized queries, one plan run per focal group."""
    if not queries:
        raise QueryError("empty query batch")
    start = time.perf_counter()
    groups: dict[tuple, list[int]] = {}
    for qi, query in enumerate(queries):
        query.validate_against(index.table.schema)
        key = canonical_focal_key(query.range_selections, index.cardinalities)
        groups.setdefault((key, query.item_attributes), []).append(qi)

    items: list[BatchItem | None] = [None] * len(queries)
    for gid, members in enumerate(groups.values()):
        asked = [queries[qi] for qi in members]
        loosest = replace(
            asked[0],
            minsupp=min(q.minsupp for q in asked),
            minconf=min(q.minconf for q in asked),
        )
        result = execute_plan(PlanKind.SSVS, index, loosest, expand=expand)
        for qi, query in zip(members, asked):
            keep = result.rules.meets(
                min_count_for(query.minsupp, result.dq_size), query.minconf
            )
            items[qi] = BatchItem(
                query=query,
                rules=result.rules[keep],
                dq_size=result.dq_size,
                shared_group=gid,
            )
    return BatchReport(
        items=items,
        n_groups=len(groups),
        elapsed=time.perf_counter() - start,
    )
