"""Parameter-space exploration over (minsupport, minconfidence).

COLARM grew out of the authors' PARAS framework [13, 15], which precomputes
how the *rule output* changes across the (minsupp, minconf) parameter
space so analysts can pick thresholds interactively.  This module provides
that capability for localized queries: one grid evaluation per focal
subset, reusing a single SEARCH + record-level pass for every cell.

The key observation mirrors PARAS: a rule ``X => Y`` appears in the output
of exactly the cells with ``minsupp <= supp(rule)`` and
``minconf <= conf(rule)``, so computing each candidate rule's *stability
region* once answers every grid cell by counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mipindex import MIPIndex
from repro.core.operators import make_context, op_search, op_supported_verify
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from repro.itemsets.itemset import min_count_for
from repro.itemsets.rules import RuleBlock

__all__ = ["ParameterGrid", "explore_parameter_space"]


@dataclass(frozen=True)
class ParameterGrid:
    """Rule counts over a (minsupp, minconf) grid for one focal subset.

    ``counts[i][j]`` is the number of localized rules output at
    ``minsupps[i]`` / ``minconfs[j]``.  Counts are non-increasing along
    both axes (tested as an invariant).
    """

    minsupps: tuple[float, ...]
    minconfs: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]
    rules: RuleBlock  # all candidate rules with their exact stats

    def count_at(self, minsupp: float, minconf: float) -> int:
        """Rules output at an exact grid cell."""
        try:
            i = self.minsupps.index(minsupp)
            j = self.minconfs.index(minconf)
        except ValueError:
            raise QueryError(
                f"({minsupp}, {minconf}) is not a grid cell; cells: "
                f"{self.minsupps} x {self.minconfs}"
            ) from None
        return self.counts[i][j]

    def knee_cells(self, max_rules: int) -> list[tuple[float, float, int]]:
        """The loosest cells still emitting at most ``max_rules`` rules.

        For each minconf column, the smallest minsupp whose count fits the
        budget — the PARAS-style "interesting boundary" analysts start from.
        """
        out = []
        for j, minconf in enumerate(self.minconfs):
            for i, minsupp in enumerate(self.minsupps):
                if self.counts[i][j] <= max_rules:
                    out.append((minsupp, minconf, self.counts[i][j]))
                    break
        return out


def explore_parameter_space(
    index: MIPIndex,
    base_query: LocalizedQuery,
    minsupps: tuple[float, ...],
    minconfs: tuple[float, ...],
) -> ParameterGrid:
    """Evaluate the rule-output grid for one focal subset.

    ``base_query`` supplies the range selections and item attributes; its
    own thresholds are ignored.  All candidate rules are generated once at
    the loosest cell and bucketed into the grid by their exact (support,
    confidence) — one plan execution instead of ``len(grid)``.

    Exact for every cell with
    ``minsupp >= primary_support * |D| / |D^Q|`` (the POQM floor); looser
    cells would need the ARM plan and raise :class:`QueryError`.
    """
    if not minsupps or not minconfs:
        raise QueryError("grid axes must be non-empty")
    minsupps = tuple(sorted(set(minsupps)))
    minconfs = tuple(sorted(set(minconfs)))

    floor_query = LocalizedQuery(
        range_selections=base_query.range_selections,
        minsupp=minsupps[0],
        minconf=minconfs[0],
        item_attributes=base_query.item_attributes,
    )
    ctx = make_context(index, floor_query)
    coverage = index.primary_support * index.table.n_records / ctx.dq_size
    if minsupps[0] < coverage:
        raise QueryError(
            f"grid minsupp {minsupps[0]:.3f} is below the POQM coverage "
            f"floor {coverage:.3f} for this focal subset; rebuild the index "
            "with a lower primary support or raise the grid"
        )

    # The loosest cell's answer, every rule with its exact statistics;
    # a tighter cell's is the part of it that meets both thresholds.
    rules = op_supported_verify(ctx, op_search(ctx))
    counts = tuple(
        tuple(
            int(np.count_nonzero(rules.meets(
                min_count_for(minsupp, ctx.dq_size), minconf
            )))
            for minconf in minconfs
        )
        for minsupp in minsupps
    )
    return ParameterGrid(
        minsupps=minsupps,
        minconfs=minconfs,
        counts=counts,
        rules=rules,
    )
