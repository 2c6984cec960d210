"""Local-vs-global comparison: surfacing Simpson's paradox (Section 5.3).

Two questions from the paper's evaluation:

* how many closed frequent itemsets found by a localized query are *fresh*
  (locally frequent but hidden globally) versus *repeated* (already global)
  — the Figure 13 quantities;
* which rules flip between the global and the local context — the classic
  Simpson's-paradox signature (a rule confident globally that fails
  locally, or vice versa).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from repro.core.focal import FocalSubset, resolve_focal
from repro.core.mipindex import MIPIndex
from repro.core.operators import make_context, op_eliminate, op_search
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Item
from repro.itemsets.itemset import Itemset, min_count_for
from repro.itemsets.rules import Rule, split_counts

__all__ = [
    "LocalGlobalItemsets",
    "RuleFlip",
    "compare_itemsets",
    "find_rule_flips",
    "find_vanishing_rules",
]


@dataclass(frozen=True)
class LocalGlobalItemsets:
    """Fig. 13's split of locally frequent closed itemsets."""

    fresh_local: tuple[Itemset, ...]      # locally frequent, globally hidden
    repeated_global: tuple[Itemset, ...]  # locally and globally frequent

    @property
    def n_fresh(self) -> int:
        return len(self.fresh_local)

    @property
    def n_repeated(self) -> int:
        return len(self.repeated_global)

    @property
    def n_local(self) -> int:
        return self.n_fresh + self.n_repeated


def compare_itemsets(
    index: MIPIndex,
    query: LocalizedQuery,
    global_minsupp: float | None = None,
) -> LocalGlobalItemsets:
    """Split the query's locally frequent itemsets into fresh vs repeated.

    ``global_minsupp`` is the threshold an analyst would use for a *global*
    mining request (defaults to the query's own minsupp): a locally
    frequent itemset whose global support stays below it is *fresh* — it
    would be missed, or buried, in the global context.
    """
    if global_minsupp is None:
        global_minsupp = query.minsupp
    ctx = make_context(index, query)
    rows = op_eliminate(ctx, op_search(ctx)).rows
    itemsets = [
        tuple(Item(a, v) for a, v in enumerate(values) if v >= 0)
        for values in index.stats.mip_fixed_values.take(rows, axis=0).tolist()
    ]
    global_floor = min_count_for(global_minsupp, index.table.n_records)
    repeated = index.global_counts[rows] >= global_floor
    return LocalGlobalItemsets(
        fresh_local=tuple(compress(itemsets, (~repeated).tolist())),
        repeated_global=tuple(compress(itemsets, repeated.tolist())),
    )


@dataclass(frozen=True)
class RuleFlip:
    """A rule whose confidence crosses the threshold between contexts."""

    rule: Rule               # stats w.r.t. the focal subset
    global_confidence: float
    local_confidence: float

    @property
    def direction(self) -> str:
        """``"emerges"`` if only locally confident, ``"vanishes"`` otherwise."""
        return (
            "emerges" if self.local_confidence > self.global_confidence else "vanishes"
        )


def find_rule_flips(
    index: MIPIndex,
    query: LocalizedQuery,
    margin: float = 0.0,
) -> list[RuleFlip]:
    """Rules confident in exactly one of the two contexts.

    Returns localized rules passing ``minconf`` locally whose global
    confidence misses it by at least ``margin``.  Sorted by the size of
    the confidence gap, largest first (ties in rule order).
    """
    rules = execute_plan(PlanKind.SEV, index, query).rules
    both, antecedent, _ = split_counts(
        rules, _whole_table(index, query).kernel(), index.table.schema
    )
    # Where a rule holds locally its antecedent occurs, so also globally.
    global_confidence = both / antecedent
    flips = [
        RuleFlip(rule, global_, rule.confidence)
        for rule, global_ in compress(
            zip(rules, global_confidence.tolist()),
            global_confidence < query.minconf - margin,
        )
    ]
    flips.sort(key=lambda f: -(f.local_confidence - f.global_confidence))
    return flips


def find_vanishing_rules(
    index: MIPIndex,
    query: LocalizedQuery,
    global_minsupp: float,
    margin: float = 0.0,
) -> list[RuleFlip]:
    """Global rules that *fail* inside the focal subset.

    The mirror image of :func:`find_rule_flips` — and the paper's opening
    example: R_G = (Age 20-30 -> Salary 90-120K) holds globally but not
    for Seattle's female employees.  Generates the global rules at
    ``(global_minsupp, query.minconf)`` from the stored itemsets, then
    keeps those whose *local* confidence misses ``minconf`` by at least
    ``margin`` (rules whose antecedent never occurs locally are skipped —
    they neither hold nor fail there).  Sorted by confidence drop,
    largest first (ties in rule order).
    """
    local = make_context(index, query).focus
    everything = _whole_table(index, replace(query, minsupp=global_minsupp))
    rules = execute_plan(
        PlanKind.SEV, index, everything.query, focus=everything
    ).rules
    both, antecedent, _ = split_counts(
        rules, local.kernel(), index.table.schema
    )
    occurs = antecedent > 0
    local_confidence = both / np.where(occurs, antecedent, 1)
    flips = [
        RuleFlip(rule, rule.confidence, local_)
        for rule, local_ in compress(
            zip(rules, local_confidence.tolist()),
            occurs & (local_confidence < query.minconf - margin),
        )
    ]
    flips.sort(key=lambda f: -(f.global_confidence - f.local_confidence))
    return flips


def _whole_table(index: MIPIndex, query: LocalizedQuery) -> FocalSubset:
    """``query`` asked of every record: the global context is the focal
    subset no range selects from."""
    return resolve_focal(index, replace(query, range_selections={}))
