"""The six mining plans of Table 4 and their executor.

Every plan is a pipeline of the operators in
:mod:`repro.core.operators`:

========  ==========================================================
S-E-V     SEARCH -> ELIMINATE -> VERIFY (the basic plan)
S-VS      SEARCH -> SUPPORTED-VERIFY (selection push-up)
SS-E-V    SUPPORTED-SEARCH -> ELIMINATE -> VERIFY
SS-VS     SUPPORTED-SEARCH -> SUPPORTED-VERIFY
SS-E-U-V  SUPPORTED-SEARCH -> split contained/partial -> ELIMINATE on
          partial only -> UNION -> VERIFY (differential treatment,
          Lemma 4.5: contained MIPs skip the record-level check)
ARM       SELECT -> traditional mining from scratch
========  ==========================================================

All five MIP-index plans return identical rule sets (they differ only in
how much work they spend); the ARM plan returns rules over *locally closed*
itemsets, which coincide with the others under expansion (see DESIGN.md).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from repro.core.mipindex import MIPIndex
from repro.core.operators import (
    ExecutionTrace,
    QueryContext,
    make_context,
    op_arm,
    op_eliminate,
    op_search,
    op_select,
    op_supported_search,
    op_supported_verify,
    op_union,
    op_verify,
    qualified_from_contained,
)
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from repro.itemsets.rules import RuleBlock
from repro.kernels import SubsetCells

__all__ = ["PlanKind", "PlanResult", "execute_plan", "plan_from_name"]


class PlanKind(enum.Enum):
    """The six alternative execution strategies (Table 4)."""

    SEV = "S-E-V"
    SVS = "S-VS"
    SSEV = "SS-E-V"
    SSVS = "SS-VS"
    SSEUV = "SS-E-U-V"
    ARM = "ARM"


@dataclass
class PlanResult:
    """Outcome of executing one plan for one query."""

    kind: PlanKind
    rules: RuleBlock
    trace: ExecutionTrace
    elapsed: float
    dq_size: int
    #: Sub-itemset cells from VERIFY-family rule generation (``None`` for
    #: the ARM plan) — the cache-worthy intermediate picked up by
    #: ``engine.query``.
    lattice_cells: SubsetCells | None = None

    @property
    def n_rules(self) -> int:
        return len(self.rules)


def execute_plan(
    kind: PlanKind,
    index: MIPIndex,
    query: LocalizedQuery,
    expand: bool = False,
    delta=None,
    focus=None,
) -> PlanResult:
    """Run one plan end to end and return its rules plus instrumentation.

    ``delta`` optionally attaches a
    :class:`repro.core.maintenance.MaintainedIndex`; all six plans then
    answer over live main+delta with vectorized delta corrections (see
    :func:`repro.core.operators.make_context`).

    ``focus`` hands in the request's already resolved
    :class:`repro.core.focal.FocalSubset` (data, not an option: the rules
    are the same with or without it); ``make_context`` adopts it only
    while it is valid for ``index``/``query``/``delta`` and resolves the
    subset itself otherwise.
    """
    start = time.perf_counter()
    ctx = make_context(index, query, expand=expand, delta=delta, focus=focus)
    rules = _PLAN_BODIES[kind](ctx)
    elapsed = time.perf_counter() - start
    return PlanResult(
        kind=kind,
        rules=rules,
        trace=ctx.trace,
        elapsed=elapsed,
        dq_size=ctx.dq_size,
        lattice_cells=ctx.lattice_cells,
    )


def _run_sev(ctx: QueryContext) -> RuleBlock:
    candidates = op_search(ctx)
    qualified = op_eliminate(ctx, candidates)
    return op_verify(ctx, qualified)


def _run_svs(ctx: QueryContext) -> RuleBlock:
    candidates = op_search(ctx)
    return op_supported_verify(ctx, candidates)


def _run_ssev(ctx: QueryContext) -> RuleBlock:
    candidates = op_supported_search(ctx)
    qualified = op_eliminate(ctx, candidates)
    return op_verify(ctx, qualified)


def _run_ssvs(ctx: QueryContext) -> RuleBlock:
    candidates = op_supported_search(ctx)
    return op_supported_verify(ctx, candidates)


def _run_sseuv(ctx: QueryContext) -> RuleBlock:
    candidates = op_supported_search(ctx)
    contained, partial = candidates.split_overlap()
    # Lemma 4.5: a contained MIP's local count equals its global count, and
    # SUPPORTED-SEARCH already guaranteed global count >= min_count — so
    # contained MIPs skip the record-level ELIMINATE entirely (only the
    # cheap Aitem filter applies outside expanded mode); the counts ride
    # along as arrays from SUPPORTED-SEARCH.
    contained_qualified = qualified_from_contained(ctx, contained)
    partial_qualified = op_eliminate(ctx, partial)
    merged = op_union(ctx, contained_qualified, partial_qualified)
    return op_verify(ctx, merged)


def _run_arm(ctx: QueryContext) -> RuleBlock:
    sub = op_select(ctx)
    return op_arm(ctx, sub)


_PLAN_BODIES = {
    PlanKind.SEV: _run_sev,
    PlanKind.SVS: _run_svs,
    PlanKind.SSEV: _run_ssev,
    PlanKind.SSVS: _run_ssvs,
    PlanKind.SSEUV: _run_sseuv,
    PlanKind.ARM: _run_arm,
}


def plan_from_name(name: str) -> PlanKind:
    """Resolve a plan by its paper name (``'SS-E-U-V'``) or enum name."""
    normalized = name.replace("-", "").replace("_", "").upper()
    for kind in PlanKind:
        if kind.name == normalized or kind.value.replace("-", "") == normalized:
            return kind
    raise QueryError(f"unknown plan {name!r}; expected one of "
                     f"{[k.value for k in PlanKind]}")
