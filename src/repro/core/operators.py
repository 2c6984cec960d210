"""The isolated online-mining operators (Section 4).

COLARM treats online mining not as a black box but as a pipeline of
operators with precise inputs and outputs:

* SELECT            — the focal subset in vertical form (ARM plan);
* SEARCH            — the MIPs overlapping the focal region;
* SUPPORTED-SEARCH  — SEARCH with the global-count filter (Lemma 4.4);
* ELIMINATE         — record-level ``Aitem`` + minsupp filtering;
* VERIFY            — rule generation + minconf checks over the item rows;
* SUPPORTED-VERIFY  — ELIMINATE and VERIFY interleaved (selection push-up);
* UNION             — merge contained and partially-overlapped candidates;
* ARM               — traditional from-scratch mining on the focal subset.

The MIP-plan pipeline is *array-native* end to end: SEARCH serves hits as
contiguous MIP-row / global-count arrays read off the statistics'
per-value MIP bitmaps (:class:`CandidateArray`), ELIMINATE qualifies
them with one batched kernel call into a :class:`QualifiedArray`, and
VERIFY extracts rules through the request's masked kernel
(:class:`repro.kernels.FocalKernel`: item rows ANDed with the focal row)
that counts every distinct sub-itemset of the request once; ARM mines
and counts on the dense focal projection instead.  From SELECT/VERIFY
to the :class:`RuleBlock`, itemsets live in one integer item space (the
schema's item ids):
``Item`` tuples are built for the sources that kept a rule, and
:class:`Rule` objects only when a consumer iterates the block; a caller
that wants a MIP object asks the index for the row's view
(:meth:`~repro.core.mipindex.MIPIndex.mip`).

Every operator call appends an :class:`OperatorTrace` (cardinalities,
record-level work, wall time) to the query's :class:`ExecutionTrace`; the
calibration module turns those traces into the cost-model unit weights.
VERIFY-family traces additionally split their wall time into mining
(``mining_s``) and rule generation (``rulegen_s``, with the kernel share
in ``kernel_s`` and the one-off masked-kernel build in ``masking_s``) so
the cost model can price the ``rulegen`` term separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro import kernels
from repro.core.focal import FocalSubset, resolve_focal
from repro.core.mipindex import MIPIndex, mip_sources
from repro.core.query import FocalRange, LocalizedQuery
from repro.core.stats import bit_array
from repro.errors import QueryError
from repro.itemsets.charm import closed_masks
from repro.itemsets.rules import RuleBlock, rules_from_subset_lattices

__all__ = [
    "OperatorTrace",
    "ExecutionTrace",
    "QueryContext",
    "CandidateArray",
    "QualifiedArray",
    "make_context",
    "op_search",
    "op_supported_search",
    "op_eliminate",
    "op_verify",
    "op_supported_verify",
    "op_union",
    "op_select",
    "op_arm",
    "qualified_from_contained",
]

@dataclass
class CandidateArray:
    """SEARCH output in array form: rows into the index, not MIP objects.

    ``rows`` are MIP ids (rows of the index's statistics and tidset
    matrices) in support order, ``global_counts`` the matching global
    support counts, ``contained`` the exact classification against the
    focal region.
    """

    rows: np.ndarray          # (k,) intp — MIP rows, support order
    global_counts: np.ndarray  # (k,) int64 — |D^G_I| per row
    contained: np.ndarray     # (k,) bool — CONTAINED vs PARTIAL

    def __len__(self) -> int:
        return len(self.rows)

    def split_overlap(self) -> "tuple[CandidateArray, CandidateArray]":
        """``(contained, partial)`` halves — the SS-E-U-V split, one mask."""
        c = self.contained
        return (
            CandidateArray(self.rows[c], self.global_counts[c], self.contained[c]),
            CandidateArray(
                self.rows[~c], self.global_counts[~c], self.contained[~c]
            ),
        )


@dataclass
class QualifiedArray:
    """ELIMINATE output in array form: MIP rows plus exact local counts."""

    rows: np.ndarray          # (k,) intp — MIP rows
    local_counts: np.ndarray  # (k,) int64 — |t(I) ∩ D^Q| per row

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def concat(cls, a: "QualifiedArray", b: "QualifiedArray") -> "QualifiedArray":
        return cls(
            np.concatenate([a.rows, b.rows]),
            np.concatenate([a.local_counts, b.local_counts]),
        )


@dataclass
class OperatorTrace:
    """Measurements of one operator invocation."""

    name: str
    input_size: int
    output_size: int
    elapsed: float
    detail: dict[str, float] = field(default_factory=dict)


@dataclass
class ExecutionTrace:
    """All operator traces of one plan execution, in pipeline order."""

    operators: list[OperatorTrace] = field(default_factory=list)

    def add(self, trace: OperatorTrace) -> None:
        self.operators.append(trace)

    def total_elapsed(self) -> float:
        return sum(op.elapsed for op in self.operators)

    def rulegen_elapsed(self) -> float:
        """Wall time spent generating rules (the VERIFY-family split)."""
        return sum(op.detail.get("rulegen_s", 0.0) for op in self.operators)

    def by_name(self, name: str) -> OperatorTrace | None:
        for op in self.operators:
            if op.name == name:
                return op
        return None


@dataclass
class QueryContext:
    """Shared runtime state for one localized query execution.

    The focal subset itself — tidset, sizes, thresholds, delta view, the
    packed focal row, the masked kernel and ARM's projection — lives on
    ``focus`` (:class:`repro.core.focal.FocalSubset`); the context reads
    through to it, so a subset the optimizer already resolved is executed
    on as-is.
    """

    index: MIPIndex
    query: LocalizedQuery
    focus: FocalSubset
    expand: bool       # expand candidates to all locally frequent itemsets
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    masking_s: float = 0.0  # one-off masked-kernel build time
    #: The sub-itemset cells of the last VERIFY-family rule generation
    #: (a :class:`~repro.kernels.SubsetCells`) — the reusable
    #: intermediate the materialized cache stores.  ``None`` until rule
    #: generation ran.
    lattice_cells: "kernels.SubsetCells | None" = field(
        default=None, repr=False
    )

    @property
    def focal(self) -> FocalRange:
        return self.focus.focal

    @property
    def dq(self) -> int:
        """Focal-subset tidset (live main records only)."""
        return self.focus.dq

    @property
    def dq_size(self) -> int:
        """``|D^Q|`` (main live + delta live)."""
        return self.focus.dq_size

    @property
    def main_dq_size(self) -> int:
        """``|D^Q ∩ main_live|`` (``dq_size`` without a delta store)."""
        return self.focus.main_dq_size

    @property
    def min_count(self) -> int:
        """``ceil(minsupp * |D^Q|)``."""
        return self.focus.min_count

    @property
    def delta(self):
        """Attached delta-store read view
        (:class:`repro.core.maintenance.DeltaView`; ``None`` = immutable
        index).  When present, ``dq`` is already masked to live main
        records and every operator adds the view's vectorized corrections."""
        return self.focus.delta

    @property
    def qualify_floor(self) -> int:
        """The combined local count a candidate needs to stay in play.

        ``min_count``, except in expanded mode over a live delta.  There a
        qualified closure stands for its sub-itemsets, and a sub-itemset
        ``S`` whose main closure is ``C`` counts ``main(C) + delta(S)``:
        the delta records need not support all of ``C``, so ``S`` can
        reach ``min_count`` while ``C`` falls short by up to the delta
        focal size.  The floor relaxes by exactly that bound (as
        SUPPORTED-SEARCH's does); the exact combined-count filter of the
        extraction discards whatever it over-admits.
        """
        if self.expand:
            return max(self.min_count - (self.dq_size - self.main_dq_size), 1)
        return self.min_count

    def packed_dq(self) -> np.ndarray:
        """The focal tidset as a packed kernel row (computed once)."""
        return self.focus.packed_dq()

    def focal_kernel(self) -> "kernels.FocalKernel":
        """The masked support kernel, built once per resolved subset; the
        build (if this call makes it) is timed into ``masking_s``.  A
        context whose ``focus`` arrives with the kernel already built —
        by the optimizer's profile — pays nothing here."""
        start = time.perf_counter()
        kernel = self.focus.kernel()
        self.masking_s += time.perf_counter() - start
        return kernel


def make_context(
    index: MIPIndex,
    query: LocalizedQuery,
    expand: bool = False,
    delta: "object | None" = None,
    focus: FocalSubset | None = None,
) -> QueryContext:
    """The shared query setup: the focal subset and its thresholds.

    ``D^Q``'s tidset and size are needed by every plan (even the
    thresholds depend on ``|D^Q|``), so obtaining them is traced as a
    common ``FOCUS`` step rather than attributed to any single plan's
    operators.  ``focus`` hands in a subset already resolved for this
    request (the optimizer's, through ``PlanChoice.focus``); it is
    adopted only while :meth:`FocalSubset.valid_for` holds — a missing
    or stale one is resolved afresh (:func:`repro.core.focal.
    resolve_focal`), never trusted.

    ``delta`` optionally attaches a
    :class:`repro.core.maintenance.MaintainedIndex`, so the subset is
    the live main+delta one and the operators add their vectorized
    delta corrections.
    """
    start = time.perf_counter()
    if focus is None or not focus.valid_for(index, query, delta):
        focus = resolve_focal(index, query, delta)
    if focus.dq_size == 0:
        raise QueryError("focal subset is empty; nothing to mine")
    ctx = QueryContext(index=index, query=query, focus=focus, expand=expand)
    ctx.trace.add(
        OperatorTrace(
            name="FOCUS",
            input_size=index.table.n_records,
            output_size=focus.dq_size,
            elapsed=time.perf_counter() - start,
        )
    )
    return ctx


# ---------------------------------------------------------------------------
# SEARCH and SUPPORTED-SEARCH
# ---------------------------------------------------------------------------


def op_search(ctx: QueryContext) -> CandidateArray:
    """SEARCH: MIPs overlapping the focal region, with exact classification.

    Reads the region's overlap and containment bitmaps over the per-value
    MIP bitsets (:meth:`repro.core.focal.FocalSubset.region_bits`, shared
    with the optimizer's cardinality pass): exact on every attribute's
    value set, so there are no hull-only false positives to discard.
    """
    return _search(ctx, name="SEARCH", min_count=None)


def op_supported_search(ctx: QueryContext) -> CandidateArray:
    """SUPPORTED-SEARCH: SEARCH plus the global-count upper-bound filter.

    MIPs whose global count cannot reach ``minsupp * |D^Q|`` are dropped
    (Lemma 4.4, Section 4.3); in support order the survivors are a
    prefix of the overlap bitmap, so the filter is one mask.

    With a delta store attached the stored global counts no longer bound
    the combined local count — a candidate can gain up to the delta focal
    size — so the threshold relaxes by exactly that bound (deletes
    need no relaxation: they only shrink live counts, keeping stored
    counts valid upper bounds).
    """
    min_count = max(ctx.min_count - (ctx.dq_size - ctx.main_dq_size), 1)
    return _search(ctx, name="SUPPORTED-SEARCH", min_count=min_count)


def _search(ctx: QueryContext, name: str, min_count: int | None) -> CandidateArray:
    start = time.perf_counter()
    stats = ctx.index.stats
    n = stats.n_mips
    overlap, contained = ctx.focus.region_bits()
    if min_count is not None:
        overlap &= (1 << stats.n_supported(min_count)) - 1
    # Support positions, largest global count first; the counts are
    # ``sorted_global_counts`` read backwards.
    positions = bit_array(overlap, n).view(np.bool_).nonzero()[0]
    candidates = CandidateArray(
        stats.mip_rows.take(positions),
        stats.sorted_global_counts.take(n - 1 - positions),
        bit_array(contained, n).view(np.bool_).take(positions),
    )
    ctx.trace.add(
        OperatorTrace(
            name=name,
            input_size=n,
            output_size=len(candidates),
            elapsed=time.perf_counter() - start,
        )
    )
    return candidates


# ---------------------------------------------------------------------------
# ELIMINATE
# ---------------------------------------------------------------------------


def _aitem_mask(ctx: QueryContext, rows: np.ndarray) -> np.ndarray:
    """Vectorized Aitem filter: which MIP rows use only Aitem attributes.

    A MIP violates the filter iff it fixes a value in any attribute outside
    ``Aitem`` (``mip_fixed_values`` stores ``-1`` for free attributes), so
    one gather plus one ``any`` over the outside columns decides all rows.
    Expanded mode admits everything (the filter moves into VERIFY).
    """
    aitem = ctx.query.item_attributes
    if ctx.expand or aitem is None:
        return np.ones(len(rows), dtype=bool)
    fixed = ctx.index.stats.mip_fixed_values.take(rows, axis=0)
    outside = [a for a in range(fixed.shape[1]) if a not in aitem]
    if not outside:
        return np.ones(len(rows), dtype=bool)
    return ~(fixed[:, outside] >= 0).any(axis=1)


def _qualify_candidates(
    ctx: QueryContext, candidates: CandidateArray
) -> tuple[QualifiedArray, int]:
    """The record-level minsupp qualification shared by ELIMINATE and
    SUPPORTED-VERIFY (plus the Aitem filter).

    No MIP object is touched: the Aitem filter is one vectorized mask over
    the gathered fixed-value rows, and qualification is *one* batched
    kernel call — the surviving rows of the index's packed MIP-tidset
    matrix are gathered, ANDed with the packed focal tidset, and
    popcounted together (:func:`repro.kernels.and_count`).

    Returns the qualified candidates (order preserved) and the number of
    record-level checks performed (the ELIMINATE cost-model feature).
    """
    keep = _aitem_mask(ctx, candidates.rows)
    rows = candidates.rows[keep]
    if len(rows):
        counts = kernels.and_count(
            ctx.index.mip_tidset_matrix.take(rows, axis=0),
            ctx.packed_dq(),
        )
        if ctx.delta is not None:
            # Exact delta correction, one AND+popcount row-gather over
            # the delta store's per-MIP matrix (``packed_dq`` is
            # already masked to live main records, so the main share
            # needs no tombstone adjustment).
            counts = counts + ctx.delta.mip_counts(rows)
    else:
        counts = np.zeros(0, dtype=np.int64)
    qualifies = counts >= ctx.qualify_floor
    return (
        QualifiedArray(rows[qualifies], counts[qualifies].astype(np.int64)),
        int(len(rows)),
    )


def op_eliminate(ctx: QueryContext, candidates: CandidateArray) -> QualifiedArray:
    """ELIMINATE: record-level minsupp check (plus the Aitem filter).

    Every surviving candidate carries its exact local support count so
    VERIFY never recomputes it.  In expanded mode the Aitem filter moves to
    the expanded itemsets inside VERIFY (a candidate's closure may add
    attributes outside Aitem whose sub-itemsets still matter).
    """
    start = time.perf_counter()
    qualified, record_checks = _qualify_candidates(ctx, candidates)
    ctx.trace.add(
        OperatorTrace(
            name="ELIMINATE",
            input_size=len(candidates),
            output_size=len(qualified),
            elapsed=time.perf_counter() - start,
            detail={"record_checks": record_checks},
        )
    )
    return qualified


def qualified_from_contained(
    ctx: QueryContext, contained: CandidateArray
) -> QualifiedArray:
    """Lemma 4.5 shortcut for fully contained candidates (SS-E-U-V).

    A contained MIP's local count *equals* its global count, and
    SUPPORTED-SEARCH already guaranteed the global count reaches
    ``min_count`` — so contained candidates become qualified without any
    record-level work (only the cheap Aitem filter applies outside
    expanded mode).  The global counts ride along from SUPPORTED-SEARCH,
    so this is a masked copy.

    With a delta store attached the lemma still holds per universe —
    every record supporting a contained MIP's itemset lies inside the
    focal region, stored or appended — but the stored count must shed
    tombstoned records and gain the delta partial, and the relaxed
    SUPPORTED-SEARCH no longer guarantees the corrected count reaches
    ``min_count``, so the threshold is re-checked.  All three steps are
    batched kernel calls.
    """
    keep = _aitem_mask(ctx, contained.rows)
    rows = contained.rows[keep]
    counts = contained.global_counts[keep].astype(np.int64)
    if ctx.delta is not None:
        if ctx.delta.main_dead_packed is not None and len(rows):
            counts = counts - ctx.delta.dead_counts(
                ctx.index.mip_tidset_matrix.take(rows, axis=0)
            )
        counts = counts + ctx.delta.mip_counts(rows)
        qualifies = counts >= ctx.qualify_floor
        rows, counts = rows[qualifies], counts[qualifies]
    return QualifiedArray(rows, counts)


# ---------------------------------------------------------------------------
# VERIFY and SUPPORTED-VERIFY
# ---------------------------------------------------------------------------


def op_verify(ctx: QueryContext, qualified: QualifiedArray) -> RuleBlock:
    """VERIFY: rule generation and minconf checks, every support counted
    over the masked item rows (the paper's IT-tree lookups)."""
    start = time.perf_counter()
    masking_before = ctx.masking_s
    rules, lookups, kernel_s = _rules_from_qualified(ctx, qualified)
    elapsed = time.perf_counter() - start
    ctx.trace.add(
        OperatorTrace(
            name="VERIFY",
            input_size=len(qualified),
            output_size=len(rules),
            elapsed=elapsed,
            detail={
                "support_lookups": lookups,
                "mining_s": 0.0,
                "rulegen_s": elapsed,
                "kernel_s": kernel_s,
                "masking_s": ctx.masking_s - masking_before,
            },
        )
    )
    return rules


def op_supported_verify(
    ctx: QueryContext, candidates: CandidateArray
) -> RuleBlock:
    """SUPPORTED-VERIFY: selection pushed up into verification (Section 4.2).

    The minsupp check is interleaved with rule generation in a single pass,
    avoiding ELIMINATE's separate materialized intermediate when it would
    filter little.  The trace still splits the wall time: the embedded
    qualification is ``mining_s``, the rest is ``rulegen_s``.
    """
    start = time.perf_counter()
    masking_before = ctx.masking_s
    qualified, record_checks = _qualify_candidates(ctx, candidates)
    mining_s = time.perf_counter() - start
    rules, lookups, kernel_s = _rules_from_qualified(ctx, qualified)
    elapsed = time.perf_counter() - start
    ctx.trace.add(
        OperatorTrace(
            name="SUPPORTED-VERIFY",
            input_size=len(candidates),
            output_size=len(rules),
            elapsed=elapsed,
            detail={
                "record_checks": record_checks,
                "support_lookups": lookups,
                "mining_s": mining_s,
                "rulegen_s": elapsed - mining_s,
                "kernel_s": kernel_s,
                "masking_s": ctx.masking_s - masking_before,
            },
        )
    )
    return rules


def _rules_from_qualified(
    ctx: QueryContext, qualified: QualifiedArray
) -> tuple[RuleBlock, int, float]:
    """Generate localized rules from support-qualified candidates, batched.

    The qualified MIP rows become rule sources in the integer item space
    without touching a ``MIP`` object — a candidate's itemset is its row
    of ``stats.mip_fixed_values`` — and :func:`_rules_from_sources`
    counts and extracts them, gathering their cells from the index's
    :class:`~repro.kernels.SubsetTable` instead of naming them.  In
    expanded mode the candidates are cut
    down to ``Aitem`` first and every locally frequent sub-itemset of
    what is left is a source, so all six plans return the same rule set
    whenever the primary floor covers the query (DESIGN.md).

    Returns ``(rules, kernel_evaluations, kernel_seconds)``, which feed
    the VERIFY trace detail.
    """
    aitem = ctx.query.item_attributes if ctx.expand else None
    sources, widths = mip_sources(ctx.index, qualified.rows, aitem)
    sources, rows = sources[widths >= 2], qualified.rows[widths >= 2]
    if ctx.expand:
        # Distinct MIPs can agree inside Aitem.
        sources, rows = np.unique(sources, axis=0), None
    rules, ctx.lattice_cells, lookups, kernel_s = _rules_from_sources(
        ctx, sources, rows
    )
    return rules, lookups, kernel_s


def _rules_from_sources(
    ctx: QueryContext,
    sources: np.ndarray,
    rows: np.ndarray | None = None,
    kernel: "kernels.FocalKernel | None" = None,
) -> "tuple[RuleBlock, list, int, float]":
    """Count the request's sub-itemset table and extract the rules — the
    shared tail of VERIFY-family and ARM rule generation.

    ``sources`` is a right-padded ``(M, w)`` matrix of ascending item ids
    (what :meth:`repro.kernels.FocalKernel.count_subset_lattice` takes);
    in expanded mode its rows are the closures whose locally frequent
    sub-itemsets are the sources.  ``rows`` names MIP sources by their
    MIP rows: their cells come from the index's sub-itemset table.  All
    supports come from ``kernel`` — ARM's projection — or, by default,
    the request's masked kernel: every *distinct* sub-itemset of the
    request is ANDed and popcounted once, the sources'
    flat cell counts and positions are gathers from that table, and one
    vectorized pass over those cells checks every antecedent/consequent
    confidence and emits the rules in the canonical order the table's
    positions give (:func:`repro.itemsets.rules.rules_from_subset_lattices`)
    — ``Item`` tuples materialize only for sources that kept a rule.

    Returns ``(rules, lattice_cells, kernel_evaluations,
    kernel_seconds)``.
    """
    t0 = time.perf_counter()
    evaluations = 0
    if not len(sources):
        cells = kernels.SubsetCells.empty(sources)
    else:
        if kernel is None:
            built = time.perf_counter()
            kernel = ctx.focal_kernel()  # its build is ``masking_s``
            t0 += time.perf_counter() - built
        before = kernel.evaluations
        cells = kernel.count_subset_lattice(
            sources,
            floor=ctx.min_count if ctx.expand else None,
            table=None if rows is None else ctx.index.subset_table,
            rows=rows,
        )
        evaluations = kernel.evaluations - before
    kernel_s = time.perf_counter() - t0
    rules = rules_from_subset_lattices(
        cells,
        ctx.dq_size,
        ctx.query.minconf,
        schema=ctx.index.table.schema,
        min_count=ctx.min_count if ctx.expand else None,
    )
    return rules, cells, evaluations, kernel_s


# ---------------------------------------------------------------------------
# UNION
# ---------------------------------------------------------------------------


def op_union(
    ctx: QueryContext, contained: QualifiedArray, partial: QualifiedArray
) -> QualifiedArray:
    """UNION: merge the two mutually exclusive qualified sets (constant cost)."""
    start = time.perf_counter()
    merged = QualifiedArray.concat(contained, partial)
    ctx.trace.add(
        OperatorTrace(
            name="UNION",
            input_size=len(contained) + len(partial),
            output_size=len(merged),
            elapsed=time.perf_counter() - start,
        )
    )
    return merged


# ---------------------------------------------------------------------------
# SELECT and ARM (the traditional plan)
# ---------------------------------------------------------------------------


def op_select(ctx: QueryContext) -> list[int]:
    """SELECT: the focal subset in vertical form, one tidset per item id.

    SELECT builds the request's dense focal projection
    (:meth:`~repro.core.focal.FocalSubset.projection`; only ARM does)
    and hands its rows out as int tidsets — entry ``i`` is item id ``i``,
    bit ``p`` of a universe's block its ``p``-th focal record, the live
    main records' block first and the delta view's after it.  No record
    is copied; ARM's rule generation then counts through the same
    projection.  CHARM's thousands of intersections run over
    ``|D^Q|``-bit ints, not the table's full width.
    """
    start = time.perf_counter()
    item_tidsets = ctx.focus.projection().item_tidsets()
    ctx.trace.add(
        OperatorTrace(
            name="SELECT",
            input_size=ctx.index.table.n_records,
            output_size=ctx.dq_size,
            elapsed=time.perf_counter() - start,
        )
    )
    return item_tidsets


def op_arm(ctx: QueryContext, sub: list[int]) -> RuleBlock:
    """ARM: traditional two-step rule mining from scratch on the subset.

    Mines closed frequent itemsets with CHARM at the query's minsupp over
    the item attributes only — on SELECT's vertical subset, in the
    integer item space — then generates rules from them as VERIFY does:
    SELECT's projection counts the closed itemsets' sub-itemset table (no
    MIP is consulted) and one vectorized pass checks the confidences.  In expanded mode all locally frequent sub-itemsets are
    sources, to mirror the expanded MIP-plans.
    """
    start = time.perf_counter()
    schema = ctx.index.table.schema
    aitem = ctx.query.item_attributes
    admitted = range(schema.n_items) if aitem is None else chain.from_iterable(
        range(schema.item_bases[a], schema.item_bases[a] + card)
        for a, card in enumerate(schema.cardinalities()) if a in aitem
    )
    closed = closed_masks(((i, sub[i]) for i in admitted), ctx.min_count)
    rules, _, _, _ = _rules_from_sources(
        ctx,
        _mask_sources(list(closed.values()), schema.n_items),
        kernel=ctx.focus.projection(),
    )
    ctx.trace.add(
        OperatorTrace(
            name="ARM",
            input_size=ctx.dq_size,
            output_size=len(rules),
            elapsed=time.perf_counter() - start,
            detail={"local_closed_itemsets": len(closed)},
        )
    )
    return rules


def _mask_sources(masks: list[int], n_items: int) -> np.ndarray:
    """Item bitmasks (bit ``i`` = item id ``i``) of two items or more as
    a right-padded matrix of ascending ids, rows in itemset order."""
    masks = [mask for mask in masks if mask & (mask - 1)]
    if not masks:
        return np.zeros((0, 0), dtype=np.intp)
    n_bytes = -(-n_items // 8)
    packed = np.frombuffer(
        b"".join(mask.to_bytes(n_bytes, "little") for mask in masks),
        dtype=np.uint8,
    ).reshape(len(masks), n_bytes)
    member = np.unpackbits(packed, axis=1, count=n_items, bitorder="little")
    sources = np.where(member, np.arange(n_items), n_items)
    sources.sort(axis=1)
    sources = sources[:, :member.sum(axis=1).max()]
    return sources[np.lexsort(sources.T[::-1])]
