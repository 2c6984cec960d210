"""Ranking localized rules by interestingness measures.

Support/confidence admit floods of trivially-correlated rules; the
null-invariant measures of Wu, Chen & Han [23] (which the paper's VERIFY
step motivates) separate the interesting ones.  This module evaluates any
measure for localized rules — contingency counts taken *within the focal
subset* — and ranks rule lists by it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro import kernels, tidset as ts
from repro.core.mipindex import MIPIndex
from repro.errors import QueryError
from repro.itemsets import measures
from repro.itemsets.measures import RuleStats
from repro.itemsets.rules import Rule, RuleBlock, split_counts

__all__ = ["localized_rule_stats", "rank_rules", "MEASURES"]

#: Name -> measure function, as accepted by :func:`rank_rules`.
MEASURES: dict[str, Callable[[RuleStats], float]] = {
    "lift": measures.lift,
    "leverage": measures.leverage,
    "conviction": measures.conviction,
    "cosine": measures.cosine,
    "kulczynski": measures.kulczynski,
    "max_confidence": measures.max_confidence,
    "all_confidence": measures.all_confidence,
    "jaccard": measures.jaccard,
}


def _block_stats(index: MIPIndex, block: RuleBlock, dq: int) -> list[RuleStats]:
    """The contingency counts of every rule of ``block`` inside ``dq``."""
    table = index.table
    n = ts.count(dq)
    kernel = kernels.FocalKernel.masked(
        table.schema.n_items,
        [(table.item_matrix()[0], table.item_ids(),
          kernels.pack(dq, index.tidset_words), n)],
    )
    return [
        RuleStats(n=n, n_xy=n_xy, n_x=n_x, n_y=n_y)
        for n_xy, n_x, n_y in zip(
            *(c.tolist() for c in split_counts(block, kernel, table.schema))
        )
    ]


def localized_rule_stats(index: MIPIndex, rule: Rule, dq: int) -> RuleStats:
    """Exact contingency counts of a rule inside a focal tidset.

    Counted over the table's item rows masked to ``dq``, so any rule
    can be evaluated — also one an ARM-plan answer holds whose parts lie
    below the index's primary floor.
    """
    return _block_stats(index, RuleBlock.from_rules([rule]), dq)[0]


def rank_rules(
    index: MIPIndex,
    rules: Sequence[Rule],
    dq: int,
    measure: str | Callable[[RuleStats], float] = "kulczynski",
    top_k: int | None = None,
) -> list[tuple[Rule, float]]:
    """Rules sorted by a measure (descending), with their scores.

    ``measure`` is a name from :data:`MEASURES` or any callable on
    :class:`RuleStats`.  ``top_k`` truncates the result.
    """
    if isinstance(measure, str):
        try:
            fn = MEASURES[measure]
        except KeyError:
            raise QueryError(
                f"unknown measure {measure!r}; known: {sorted(MEASURES)}"
            ) from None
    else:
        fn = measure
    block = rules if isinstance(rules, RuleBlock) else RuleBlock.from_rules(rules)
    scored = [
        (rule, fn(stats))
        for rule, stats in zip(block, _block_stats(index, block, dq))
    ]
    scored.sort(key=lambda rs: (-rs[1], rs[0].antecedent, rs[0].consequent))
    return scored[:top_k] if top_k is not None else scored
