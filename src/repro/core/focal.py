"""The resolved focal subset ``D^Q`` of one request.

Everything a localized request does starts from the same facts — which
records the range selections admit, how many of them are live, what
``minsupp`` means in records — and every layer used to derive them for
itself (the optimizer for the profile, ``make_context`` for the
operators, the engine for a cached serve's ``|D^Q|``, ...).
:func:`resolve_focal` is the one place they are derived and
:class:`FocalSubset` the one object that carries them: the optimizer
resolves it for the profile, :class:`~repro.core.optimizer.PlanChoice`
hands it to the engine, and ``make_context`` adopts it — after
:meth:`FocalSubset.valid_for` has confirmed it still describes the index
and the query in hand — so a request resolves its focal subset once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import kernels, tidset as ts
from repro.core.query import FocalRange, LocalizedQuery
from repro.itemsets.itemset import min_count_for

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.core.maintenance import DeltaView, MaintainedIndex
    from repro.core.mipindex import MIPIndex

__all__ = ["FocalSubset", "resolve_focal"]


@dataclass(frozen=True, eq=False)
class FocalSubset:
    """``D^Q`` as resolved against one index generation.

    ``dq`` holds the *live main* records only (tombstones already masked
    out); ``delta`` is the request's read view of the delta store
    (``None`` on an immutable or pristine index) and ``dq_size`` counts
    both universes.  The packed focal row, the focal-projected kernel
    and its rows as int tidsets are built on first use and kept, so the
    optimizer's profile, SELECT/ARM and VERIFY of one request share one
    projection; so are the region's MIP bitmaps, which the profile's
    cardinality pass and SEARCH share.
    """

    index: "MIPIndex"
    generation: int          # index.generation at resolution time
    source: "MaintainedIndex | None"  # the delta store resolved against
    query: LocalizedQuery    # range selections and minsupp resolved for
    focal: FocalRange
    dq: int                  # focal tidset, live main records only
    main_dq_size: int        # |D^Q ∩ main_live|
    delta: "DeltaView | None"
    dq_size: int             # |D^Q| (main live + delta live)
    min_count: int           # ceil(minsupp * |D^Q|)
    #: ``[packed dq, focal kernel, its int tidsets, region bits]``,
    #: filled on first use.
    _lazy: list = field(default_factory=lambda: [None] * 4, repr=False)

    def valid_for(
        self,
        index: "MIPIndex",
        query: LocalizedQuery,
        delta: "MaintainedIndex | None",
    ) -> bool:
        """Whether this resolution still answers ``query`` on ``index``:
        same index object at the same generation, same delta store, same
        range selections and ``minsupp``."""
        mine = self.query
        return (
            self.index is index
            and self.generation == index.generation
            and self.source is delta
            and (
                mine is query
                or (
                    mine.minsupp == query.minsupp
                    and mine.range_selections == query.range_selections
                )
            )
        )

    def region_bits(self) -> tuple[int, int]:
        """``(overlap, contained)`` MIP bitmaps of the focal region in
        support order (:meth:`~repro.core.stats.IndexStatistics.
        region_bits`), computed once per request."""
        if self._lazy[3] is None:
            self._lazy[3] = self.index.stats.region_bits(
                self.query.range_selections
            )
        return self._lazy[3]

    def packed_dq(self) -> np.ndarray:
        """The live-main focal tidset as a packed kernel row."""
        if self._lazy[0] is None:
            self._lazy[0] = kernels.pack(self.dq, self.index.tidset_words)
        return self._lazy[0]

    def kernel(self) -> "kernels.FocalKernel":
        """The focal-projected support kernel.

        One universe: the live main focal records first, the delta
        view's focal records after them, item rows aligned by item id —
        so every support is counted once, over ``|D^Q|`` bits, and an
        empty delta is simply the case where nothing is appended.
        """
        if self._lazy[1] is None:
            table = self.index.table
            universes = [(
                table.item_matrix()[0], table.item_ids(), self.packed_dq(),
                self.main_dq_size,
            )]
            if self.delta is not None:
                universes.append((
                    self.delta.buffer.items, None, self.delta.focal_row,
                    self.delta.dq_size,
                ))
            self._lazy[1] = kernels.FocalKernel.project(
                table.schema.n_items, universes
            )
        return self._lazy[1]

    def item_tidsets(self) -> list[int]:
        """The kernel's rows as int tidsets by item id, read once: the ARM
        model measures on them and SELECT hands them to CHARM."""
        if self._lazy[2] is None:
            self._lazy[2] = self.kernel().item_tidsets()
        return self._lazy[2]

    def release(self) -> None:
        """Drop the projection, both forms (a later :meth:`kernel`
        rebuilds it): the owner of a request calls this when the request
        ends, so a subset that stays reachable — through a kept
        ``PlanChoice`` — holds the resolution, not ``n_items x |D^Q|``
        bits of item rows."""
        self._lazy[1] = self._lazy[2] = None


def resolve_focal(
    index: "MIPIndex",
    query: LocalizedQuery,
    delta: "MaintainedIndex | None" = None,
) -> FocalSubset:
    """Resolve ``query``'s focal subset on ``index`` (validating the query).

    ``delta`` attaches a maintained index's delta store: the main focal
    tidset is masked to live records (tombstones disappear from every
    packed-dq count for free) and the per-query delta view rides along.
    An empty subset is returned as such (``dq_size == 0``); what that
    means is the caller's call.
    """
    query.validate_against(index.table.schema)
    dq = index.table.tids_matching(query.range_selections)
    view = delta.delta_view(query) if delta is not None else None
    if view is not None:
        dq &= ~delta.main_dead
    main_dq_size = ts.count(dq)
    dq_size = main_dq_size + (view.dq_size if view is not None else 0)
    return FocalSubset(
        index=index,
        generation=index.generation,
        source=delta,
        query=query,
        focal=query.focal_range(index.cardinalities),
        dq=dq,
        main_dq_size=main_dq_size,
        delta=view,
        dq_size=dq_size,
        min_count=min_count_for(query.minsupp, dq_size),
    )
