"""Data-driven parameter suggestion (the paper's future-work item (a)).

The conclusion of the paper proposes "mining the range, support and
confidence parameters from the data in an automatic and efficient way".
This extension offers exactly that, using only the precomputed MIP-index:

* :func:`suggest_minsupp` — a support threshold at a chosen quantile of the
  stored itemsets' global supports (so a requested share of the index
  qualifies);
* :func:`suggest_minconf` — a confidence threshold from a sample of rules
  generated off the stored itemsets;
* :func:`suggest_ranges` — single-attribute focal subsets ranked by how
  many *fresh local* itemsets they surface (locally frequent itemsets that
  a global query at the same threshold would miss) — candidate starting
  points for Simpson's-paradox exploration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.core.focal import resolve_focal
from repro.core.mipindex import MIPIndex, mip_sources
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from repro.itemsets.itemset import min_count_for
from repro.itemsets.rules import rules_from_subset_lattices

__all__ = ["RangeSuggestion", "suggest_minsupp", "suggest_minconf", "suggest_ranges"]


@dataclass(frozen=True)
class RangeSuggestion:
    """A candidate focal subset and how promising it looks."""

    attribute: int
    values: frozenset[int]
    dq_size: int
    fresh_local_itemsets: int   # locally frequent but globally below minsupp
    repeated_global_itemsets: int

    def describe(self, schema) -> str:
        attr = schema.attributes[self.attribute]
        labels = ", ".join(attr.values[v] for v in sorted(self.values))
        return (
            f"{attr.name} in ({labels}): |D^Q|={self.dq_size}, "
            f"{self.fresh_local_itemsets} fresh local itemsets "
            f"({self.repeated_global_itemsets} already global)"
        )


def suggest_minsupp(index: MIPIndex, qualify_fraction: float = 0.25) -> float:
    """A minsupp so that ~``qualify_fraction`` of stored itemsets qualify.

    Computed as a quantile of the global support distribution; clamped to
    stay at or above the primary threshold (below it the index is blind).
    """
    if not 0.0 < qualify_fraction <= 1.0:
        raise QueryError("qualify_fraction must be in (0, 1]")
    counts = index.stats.sorted_global_counts
    if len(counts) == 0:
        return index.primary_support
    quantile = float(np.quantile(counts, 1.0 - qualify_fraction))
    return max(quantile / index.table.n_records, index.primary_support)


def suggest_minconf(index: MIPIndex, target_fraction: float = 0.25,
                    sample: int = 200) -> float:
    """A minconf passing ~``target_fraction`` of rules off stored itemsets."""
    if not 0.0 < target_fraction <= 1.0:
        raise QueryError("target_fraction must be in (0, 1]")
    # Every split of the first ``sample`` stored itemsets, counted in the
    # whole table: the focal subset no range selects from.
    everything = resolve_focal(
        index, LocalizedQuery({}, minsupp=index.primary_support, minconf=0.0)
    )
    sources, widths = mip_sources(index, np.arange(min(sample, index.n_mips)))
    confidences = rules_from_subset_lattices(
        everything.kernel().count_subset_lattice(
            sources[widths >= 2],
            table=index.subset_table,
            rows=np.flatnonzero(widths >= 2),
        ),
        everything.dq_size,
        0.0,
        schema=index.table.schema,
    ).confidence
    if not len(confidences):
        return 0.5
    return float(np.quantile(confidences, 1.0 - target_fraction))


def suggest_ranges(
    index: MIPIndex,
    minsupp: float,
    top_k: int = 5,
    min_subset_fraction: float = 0.02,
) -> list[RangeSuggestion]:
    """Rank single-value focal subsets by fresh local itemsets surfaced.

    For every item ``(attribute = value)`` whose subset is large enough,
    count stored itemsets that are locally frequent at ``minsupp`` inside
    the subset, split into *fresh* (globally below ``minsupp``) and
    *repeated* (already globally frequent) — the Figure 13 quantities —
    and return the ``top_k`` subsets with the most fresh itemsets.  One
    AND + popcount of the packed MIP tidsets against the item's row counts
    every stored itemset inside one subset.
    """
    n_records = index.table.n_records
    if n_records == 0:
        return []
    mips = index.mip_tidset_matrix
    globally = kernels.popcount_rows(mips) >= min_count_for(minsupp, n_records)
    fixed = index.stats.mip_fixed_values
    items, rows = index.table.item_matrix()
    sizes = kernels.popcount_rows(items)
    suggestions: list[RangeSuggestion] = []
    for item, row in rows.items():
        dq_size = int(sizes[row])
        if dq_size < min_subset_fraction * n_records:
            continue
        local = kernels.and_count(mips, items[row])
        # Skip trivial hits: itemsets that *contain* the selector item
        # are frequent in its subset by construction of the subset.
        frequent = (local >= min_count_for(minsupp, dq_size)) & (
            fixed[:, item.attribute] != item.value
        )
        repeated = int(np.count_nonzero(frequent & globally))
        fresh = int(np.count_nonzero(frequent)) - repeated
        suggestions.append(
            RangeSuggestion(
                attribute=item.attribute,
                values=frozenset({item.value}),
                dq_size=dq_size,
                fresh_local_itemsets=fresh,
                repeated_global_itemsets=repeated,
            )
        )
    suggestions.sort(key=lambda s: (-s.fresh_local_itemsets, s.attribute))
    return suggestions[:top_k]
