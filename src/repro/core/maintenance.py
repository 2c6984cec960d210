"""Array-native incremental maintenance of the MIP-index (delta store).

POQM's weak spot is data change: the offline phase is expensive, so
rebuilding on every appended record defeats the point.  This module keeps
the classic main+delta split:

* the **main** part is the immutable MIP-index built at the last fold;
* the **delta** store holds records appended since then, plus tombstone
  masks for deleted records (main deletes never touch the index — they
  only mask tids out of every focal subset).

Unlike the first cut (per-record Python loops over a ``list[np.ndarray]``
buffer), the delta store is *array-native* and rides the same kernel
stack as the main index: records live in a growable 2-D matrix, every
single-item delta tidset and every MIP's delta tidset is one row of a
packed uint64 matrix (:mod:`repro.kernels` layout), and a query's delta
focal subset is one packed row.  The online operators then answer
``|t(I) ∩ D^Q|`` as ``stored ∩ D^Q_main`` (MIP bitmaps + batched
AND+popcount, exactly as before) **plus** one vectorized AND+popcount
over the delta rows — no per-record work anywhere on the read path.

Exactness and coverage
----------------------

Localized queries stay *exact*: every emitted rule's support and
confidence are computed over the live main+delta data.  The one caveat
is coverage: an itemset absent from the main index (global support below
the primary floor at build time) can have gained at most ``|delta|``
live records since, so the result set is provably complete whenever ::

    minsupp * |D^Q| >= primary_support * |D_main| + |delta_live|

(:meth:`MaintainedIndex.coverage_guaranteed`; deletes only shrink both
sides' counts, so stored global counts stay valid upper bounds).  Under
that guarantee the *expanded* query mode is byte-identical to a full
rebuild for all six plans (property-tested); closed mode matches up to
closure representation (combined data can grow new closed sets).

Folding the delta back in
-------------------------

One way: :meth:`MaintainedIndex.begin_recompaction` builds the fresh
index — a full offline artifact, format-v2 ready — on a background
thread while reads keep serving the old generation, and
:meth:`poll_recompaction` installs the result and replays whatever
appends/deletes landed mid-build through an op log with old→new tid
translation.  :meth:`MaintainedIndex.recompact` is the same fold,
waited on.  *When* to fold is one size bound,
:attr:`MaintainedIndex.fold_due`; the index never folds on a mutation
by itself — its owner (``Colarm.append``/``delete``, ``colarm ingest``)
reads the bound and starts the fold.

Every mutation is a first-class generation event
(:meth:`repro.core.mipindex.MIPIndex.bump_generation`), so cached rules,
memoized plan choices, and serving-layer coalescing can never serve
pre-append state; an installed fold re-bases the lineage at the old
generation plus one.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping, Sequence

import numpy as np

from repro import kernels, tidset as ts
from repro.core.mipindex import MIPIndex, build_mip_index
from repro.core.query import LocalizedQuery
from repro.dataset.table import RelationalTable
from repro.errors import DataError

__all__ = ["DeltaBuffer", "DeltaView", "MaintainedIndex"]

_WORD_DTYPE = np.dtype("<u8")

#: Records per chunk of the append-time MIP fixed-value match (bounds the
#: transient ``chunk x n_mips`` boolean at ~256 * N bytes).
_MATCH_CHUNK = 256


class DeltaBuffer:
    """Packed-matrix store of appended records, sharing the kernel layout.

    Three synchronized representations are maintained incrementally per
    append batch, each with *capacity*-bit packed rows (little-endian
    uint64 words, the :mod:`repro.kernels` layout, local tid = position
    in the buffer):

    * ``data``  — the raw ``(capacity, n_attrs)`` int32 record matrix
      (rebuilds read live rows from it);
    * ``items`` — one packed delta tidset per schema item, attr-major
      (row ``bases[a] + v`` is item ``(a, v)``), so a whole batch lands
      with a single ``bitwise_or.at`` scatter;
    * ``mips``  — one packed delta tidset per main-index MIP, kept by a
      vectorized fixed-value match against ``stats.mip_fixed_values``,
      so ELIMINATE's delta correction is one AND+popcount row-gather.

    Deletes clear the record's bit in ``live`` only (O(1)); dead bits
    stay set in ``items``/``mips`` and are masked out because every
    focal row is ANDed with ``live`` first.
    """

    def __init__(self, schema, mip_fixed_values: np.ndarray):
        self.schema = schema
        self.n_attrs = schema.n_attributes
        #: Row ``bases[a] + v`` of ``items`` is item ``(a, v)`` — the
        #: schema's item id; *every* schema item has a row (also ones
        #: absent from the main table), so delta-only items still count.
        self.bases = np.asarray(schema.item_bases, dtype=np.int64)
        #: The index's own ``(n_mips, n_attrs)`` int32 array, read in
        #: place: the append-time match compares it with int32 records.
        self.mip_fixed = mip_fixed_values
        self.capacity = 0
        self.words = 1
        self.n_rows = 0
        self.data = np.zeros((0, self.n_attrs), dtype=np.int32)
        self.live = kernels.zero_row(1)
        self.items = np.zeros((schema.n_items, 1), dtype=_WORD_DTYPE)
        self.mips = np.zeros((len(self.mip_fixed), 1), dtype=_WORD_DTYPE)
        self._reserve(kernels.WORD_BITS)

    # -- storage ---------------------------------------------------------------

    def _reserve(self, n_rows: int) -> None:
        """Grow to hold ``n_rows`` records (amortized doubling)."""
        if n_rows <= self.capacity:
            return
        new_words = kernels.n_words(max(64, self.capacity * 2, n_rows))
        new_cap = new_words * kernels.WORD_BITS
        grown = np.zeros((new_cap, self.n_attrs), dtype=np.int32)
        grown[: self.n_rows] = self.data[: self.n_rows]
        self.data = grown
        if new_words != self.words:
            def widen(matrix: np.ndarray) -> np.ndarray:
                out = np.zeros((matrix.shape[0], new_words), dtype=_WORD_DTYPE)
                out[:, : matrix.shape[1]] = matrix
                return out

            self.items = widen(self.items)
            self.mips = widen(self.mips)
            live = kernels.zero_row(new_words)
            live[: self.words] = self.live
            self.live = live
            self.words = new_words
        self.capacity = new_cap

    @property
    def n_live(self) -> int:
        """Live (appended minus tombstoned) record count."""
        return int(kernels.popcount_rows(self.live[None, :])[0])

    def live_bool(self) -> np.ndarray:
        """Boolean live mask over the ``n_rows`` appended records."""
        bits = np.unpackbits(self.live.view(np.uint8), bitorder="little")
        return bits[: self.n_rows].astype(bool)

    # -- mutation --------------------------------------------------------------

    def append(self, batch: np.ndarray) -> None:
        """Ingest one *validated* ``(b, n_attrs)`` batch, fully vectorized.

        One scatter into ``items`` (all ``b * n_attrs`` item bits at
        once), one :func:`repro.kernels.set_bits` into ``live``, and a
        chunked fixed-value broadcast match updating ``mips``.
        """
        b = len(batch)
        if b == 0:
            return
        start = self.n_rows
        self._reserve(start + b)
        positions = np.arange(start, start + b, dtype=np.int64)
        self.data[start : start + b] = batch
        kernels.set_bits(self.live, positions)
        words = (positions >> 6).astype(np.intp)
        bits = np.uint64(1) << (positions & 63).astype(_WORD_DTYPE)
        flat = (self.bases[None, :] + batch).astype(np.intp)
        np.bitwise_or.at(
            self.items,
            (flat.ravel(), np.repeat(words, self.n_attrs)),
            np.repeat(bits, self.n_attrs),
        )
        if len(self.mip_fixed):
            fixed = self.mip_fixed
            for lo in range(0, b, _MATCH_CHUNK):
                hi = min(b, lo + _MATCH_CHUNK)
                chunk = batch[lo:hi]
                # A record supports a MIP iff it matches every fixed value
                # (free attributes, stored as -1, match anything).
                match = (
                    (fixed[None, :, :] == chunk[:, None, :])
                    | (fixed[None, :, :] < 0)
                ).all(axis=2)
                ri, mi = np.nonzero(match)
                if len(ri):
                    np.bitwise_or.at(
                        self.mips, (mi, words[lo + ri]), bits[lo + ri]
                    )
        self.n_rows += b

    def delete_local(self, local_ids: np.ndarray) -> None:
        """Tombstone records by local id: clear their ``live`` bits."""
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if local_ids.size == 0:
            return
        words = (local_ids >> 6).astype(np.intp)
        bits = np.uint64(1) << (local_ids & 63).astype(_WORD_DTYPE)
        np.bitwise_and.at(self.live, words, ~bits)

    # -- reads -----------------------------------------------------------------

    def focal_row(self, range_selections: Mapping[int, frozenset]) -> np.ndarray:
        """Packed tidset of live delta records inside the focal region."""
        row = self.live.copy()
        for ai, values in range_selections.items():
            base = int(self.bases[ai])
            selected = kernels.zero_row(self.words)
            for v in values:
                selected |= self.items[base + int(v)]
            row &= selected
        return row


class DeltaView:
    """One query's read view of the delta store (plus main tombstones).

    Built by :meth:`MaintainedIndex.delta_view` and attached to the
    :class:`~repro.core.operators.QueryContext`; the operators pull their
    vectorized delta corrections from here:

    * :meth:`mip_counts` — ELIMINATE's per-candidate delta partial, one
      AND+popcount over a row-gather of the buffer's MIP matrix;
    * ``buffer.items`` / ``focal_row`` — the delta universe, a block of
      words after the main one in the request's kernels
      (:meth:`repro.core.focal.FocalSubset.kernel` / ``projection``);
    * ``main_dead_packed`` — the packed main tombstone mask, for the
      contained-candidate correction (Lemma 4.5 counts must drop dead
      records the stored global counts still include).
    """

    __slots__ = (
        "buffer", "focal_row", "dq_size", "main_dead_packed",
        "main_dead_count",
    )

    def __init__(
        self,
        buffer: DeltaBuffer,
        focal_row: np.ndarray,
        main_dead_packed: np.ndarray | None,
        main_dead_count: int,
    ):
        self.buffer = buffer
        self.focal_row = focal_row
        self.dq_size = int(kernels.popcount_rows(focal_row[None, :])[0])
        self.main_dead_packed = main_dead_packed
        self.main_dead_count = main_dead_count

    def mip_counts(self, rows: np.ndarray) -> np.ndarray:
        """``|delta(I) ∩ D^Q_delta|`` for the given MIP rows, batched."""
        if self.dq_size == 0 or len(rows) == 0:
            return np.zeros(len(rows), dtype=np.int64)
        return kernels.and_count(
            self.buffer.mips.take(rows, axis=0), self.focal_row
        )

    def dead_counts(self, matrix: np.ndarray) -> np.ndarray:
        """``|row_i ∩ dead_main|`` per packed main-universe row."""
        if self.main_dead_packed is None:
            return np.zeros(len(matrix), dtype=np.int64)
        return kernels.and_count(matrix, self.main_dead_packed)


class _Recompaction:
    """State of one in-flight background fold."""

    __slots__ = (
        "thread", "result", "error", "log", "main_live", "delta_live",
        "build_s",
    )

    def __init__(self, main_live: np.ndarray, delta_live: np.ndarray):
        self.thread: threading.Thread | None = None
        self.result: MIPIndex | None = None
        self.error: Exception | None = None
        #: Ordered op log of mutations that land while the build runs:
        #: ("append", batch) / ("delete", tids in pre-install addressing).
        self.log: list[tuple[str, np.ndarray]] = []
        self.main_live = main_live
        self.delta_live = delta_live
        self.build_s = 0.0


class MaintainedIndex:
    """A MIP-index plus an array-native delta store of appended records.

    ``max_delta_fraction`` bounds the un-folded mutations relative to
    the main table (:attr:`fold_due`); folding is the background
    :meth:`begin_recompaction`/:meth:`poll_recompaction` pair, or
    :meth:`recompact` to wait for it.  Installs are counted by how they
    were awaited: ``n_rebuilds`` for a fold someone blocked on,
    ``n_recompactions`` for one a poll found finished.

    It answers no query itself: every plan reads it as the ``delta`` of
    :func:`repro.core.plans.execute_plan`.  Every ``Colarm`` owns one,
    and it is the only holder of the engine's live index: the engine,
    its optimizer and its cache read the index through it, so
    :meth:`_adopt` is the one place a fold's index is installed.
    """

    def __init__(self, index: MIPIndex, max_delta_fraction: float = 0.1):
        """Wrap a built (possibly persisted) index for maintenance.

        The index keeps its identity — same object, same generation
        lineage — until a fold installs its successor.
        """
        self.primary_support = index.primary_support
        self.max_delta_fraction = max_delta_fraction
        self.n_rebuilds = 0
        self.n_recompactions = 0
        self.last_build_s = 0.0
        self._recomp: _Recompaction | None = None
        self._adopt(index)

    def _adopt(self, index: MIPIndex) -> None:
        """Install an index — the one place the live index is assigned —
        and reset the delta store around it."""
        self.index = index
        #: The appended records, packed in the kernel layout.
        self.buffer = DeltaBuffer(
            index.table.schema, index.stats.mip_fixed_values
        )
        self._main_dead = ts.EMPTY
        self._main_dead_count = 0
        self._main_dead_packed: np.ndarray | None = None

    # -- state ----------------------------------------------------------------

    @property
    def max_delta_fraction(self) -> float:
        """The fold bound: un-folded mutations relative to the main
        table past which :attr:`fold_due` holds."""
        return self._max_delta_fraction

    @max_delta_fraction.setter
    def max_delta_fraction(self, value: float) -> None:
        if not 0.0 < value < 1.0:
            raise DataError("max_delta_fraction must be in (0, 1)")
        self._max_delta_fraction = value

    @property
    def n_main_records(self) -> int:
        return self.index.table.n_records

    @property
    def n_main_live(self) -> int:
        return self.n_main_records - self._main_dead_count

    @property
    def n_delta_records(self) -> int:
        """Live delta records (appended minus tombstoned)."""
        return self.buffer.n_live

    @property
    def n_pending(self) -> int:
        """Un-folded mutations: live delta records plus main tombstones."""
        return self.buffer.n_live + self._main_dead_count

    @property
    def fold_due(self) -> bool:
        """Whether the un-folded mutations outgrew ``max_delta_fraction``
        of the main table — the one fold trigger."""
        return self.n_pending > self.max_delta_fraction * max(
            self.n_main_records, 1
        )

    @property
    def n_records(self) -> int:
        """Live records overall (main minus tombstones, plus live delta)."""
        return self.n_main_live + self.n_delta_records

    @property
    def schema(self):
        return self.index.table.schema

    @property
    def generation(self) -> int:
        return self.index.generation

    @property
    def main_dead(self) -> int:
        """Tidset of tombstoned main records (masked out of every query)."""
        return self._main_dead

    @property
    def recompacting(self) -> bool:
        """Whether a background fold is currently in flight."""
        return self._recomp is not None

    def delta_data(self) -> np.ndarray:
        """The live delta records as an ``(n, n_attrs)`` int32 array (in
        tid order — the persistence sidecar's replay payload)."""
        return self.buffer.data[: self.buffer.n_rows][self.buffer.live_bool()]

    def coverage_guaranteed(self, query: LocalizedQuery, dq_size: int) -> bool:
        """Whether results for this query are provably complete.

        An itemset absent from the main index had global support below
        ``primary_support * |D_main|`` at build time (an upper bound that
        deletes only tighten) and can have gained at most the live delta
        since — so nothing reachable is missed whenever the focal minimum
        count clears that sum.
        """
        floor = self.primary_support * self.n_main_records
        return query.minsupp * dq_size >= floor + self.n_delta_records

    # -- mutation --------------------------------------------------------------

    def _validated(self, records: Sequence[Sequence[int]]) -> np.ndarray:
        """One batched shape/domain check over the whole append."""
        try:
            batch = np.asarray(records, dtype=np.int32)
        except (TypeError, ValueError) as exc:
            raise DataError(
                f"records must form a rectangular integer array: {exc}"
            ) from None
        n_attrs = self.schema.n_attributes
        if batch.size == 0:
            return batch.reshape(0, n_attrs)
        if batch.ndim != 2 or batch.shape[1] != n_attrs:
            shape = batch.shape[1:] if batch.ndim == 2 else batch.shape
            raise DataError(
                f"record has shape {tuple(shape)}, expected ({n_attrs},)"
            )
        cards = np.asarray(self.schema.cardinalities(), dtype=np.int64)
        if int(batch.min()) < 0 or bool((batch >= cards[None, :]).any()):
            raise DataError("record value outside its attribute domain")
        return batch

    def append(self, records: Sequence[Sequence[int]]) -> None:
        """Append records (rows of value indices) to the delta store.

        Validation is one batched ndarray check; ingest is the
        vectorized :meth:`DeltaBuffer.append`.  A first-class generation
        event: caches, memoized plan choices, and serving coalescing all
        go stale atomically with the data change.  Never folds: the
        owner reads :attr:`fold_due`.
        """
        batch = self._validated(records)
        if len(batch) == 0:
            return
        self.buffer.append(batch)
        if self._recomp is not None:
            self._recomp.log.append(("append", batch.copy()))
        self.index.bump_generation()

    def delete(self, tids: Sequence[int]) -> None:
        """Tombstone live records by global tid.

        Main tids (``< n_main_records``) are masked out of every focal
        subset; delta tids clear their ``live`` bit.  Idempotent per tid;
        out-of-range tids raise :class:`~repro.errors.DataError`.
        """
        tids = np.asarray(tids, dtype=np.int64).ravel()
        if tids.size == 0:
            return
        total = self.n_main_records + self.buffer.n_rows
        if int(tids.min()) < 0 or int(tids.max()) >= total:
            raise DataError(f"tid outside the record universe [0, {total})")
        self._apply_delete(tids)
        if self._recomp is not None:
            self._recomp.log.append(("delete", tids.copy()))
        self.index.bump_generation()

    def _apply_delete(self, tids: np.ndarray) -> None:
        n_main = self.n_main_records
        main_ids = tids[tids < n_main]
        delta_ids = tids[tids >= n_main] - n_main
        if len(main_ids):
            self._main_dead |= ts.from_array(main_ids)
            self._main_dead_count = ts.count(self._main_dead)
            self._main_dead_packed = None
        if len(delta_ids):
            self.buffer.delete_local(delta_ids)

    # -- folding ---------------------------------------------------------------

    def _main_live_mask(self) -> np.ndarray:
        mask = np.ones(self.n_main_records, dtype=bool)
        if self._main_dead_count:
            dead = np.fromiter(
                ts.iter_tids(self._main_dead),
                dtype=np.int64,
                count=self._main_dead_count,
            )
            mask[dead] = False
        return mask

    def begin_recompaction(self) -> bool:
        """Start folding the live data into a fresh index off the hot path.

        Snapshots the live main+delta rows, then builds the replacement
        index on a daemon thread while reads keep serving the current
        generation.  Mutations that land mid-build accumulate normally
        *and* are recorded in an op log for replay at install time.
        Returns ``True`` if a build was started (``False``: nothing to
        fold, or one is already running).
        """
        if self._recomp is not None:
            return False
        if self.buffer.n_rows == 0 and not self._main_dead_count:
            return False
        state = _Recompaction(self._main_live_mask(), self.buffer.live_bool())
        data = np.vstack([
            self.index.table.data[state.main_live],
            self.buffer.data[: self.buffer.n_rows][state.delta_live],
        ])
        schema, primary = self.schema, self.primary_support

        def build() -> None:
            start = time.perf_counter()
            try:
                state.result = build_mip_index(
                    RelationalTable(schema, data), primary
                )
            except Exception as exc:  # surfaced by poll_recompaction
                state.error = exc
            state.build_s = time.perf_counter() - start

        state.thread = threading.Thread(
            target=build, name="colarm-recompact", daemon=True
        )
        self._recomp = state
        state.thread.start()
        return True

    def poll_recompaction(self, wait: bool = False) -> int | None:
        """Install a finished background fold; ``None`` while it runs.

        On install: the fresh index takes over with its lineage re-based
        past the old generation, a fresh delta store is created, and the
        op log of mid-build mutations is replayed with old→new tid
        translation (records dead at snapshot time are simply gone).
        Returns the new generation.  A failed build raises its error
        (the old state stays fully serviceable).  An install counts into
        ``n_rebuilds`` when ``wait`` blocked for it, ``n_recompactions``
        otherwise.
        """
        state = self._recomp
        if state is None:
            return None
        if wait:
            state.thread.join()
        if state.thread.is_alive():
            return None
        self._recomp = None
        if state.error is not None:
            raise state.error
        old_generation = self.index.generation
        old_n_main = self.n_main_records
        snap_rows = len(state.delta_live)
        # Old→new tid maps over the snapshot's live records: position in
        # the compacted table is the live-rank (cumsum) of the old tid.
        main_map = np.cumsum(state.main_live) - 1
        n_from_main = int(state.main_live.sum())
        delta_map = (np.cumsum(state.delta_live) - 1) + n_from_main
        index = state.result
        index.clock.base = old_generation + 1
        self.last_build_s = state.build_s
        self._adopt(index)
        if wait:
            self.n_rebuilds += 1
        else:
            self.n_recompactions += 1
        for op, payload in state.log:
            if op == "append":
                self.buffer.append(payload)
                continue
            translated: list[int] = []
            for tid in payload.tolist():
                if tid < old_n_main:
                    if state.main_live[tid]:
                        translated.append(int(main_map[tid]))
                elif tid - old_n_main < snap_rows:
                    j = tid - old_n_main
                    if state.delta_live[j]:
                        translated.append(int(delta_map[j]))
                else:
                    # Appended mid-build: replayed into the new delta
                    # store in log order, so its local position is its
                    # old position minus the snapshot's row count.
                    translated.append(
                        self.n_main_records + (tid - old_n_main - snap_rows)
                    )
            if translated:
                self._apply_delete(np.asarray(translated, dtype=np.int64))
        return self.index.generation

    def recompact(self) -> int | None:
        """The synchronous fold: wait out and install any fold in flight,
        then fold whatever is still pending (mutations that landed
        mid-build included) through the same background machinery.
        Returns the new generation, ``None`` if there was nothing to fold.
        """
        generation = self.poll_recompaction(wait=True)
        if self.begin_recompaction():
            generation = self.poll_recompaction(wait=True)
        return generation

    # -- reads -----------------------------------------------------------------

    def delta_view(self, query: LocalizedQuery) -> DeltaView | None:
        """Per-query delta read view, or ``None`` when the index is
        pristine (no delta rows, no tombstones) — the pure main path."""
        if self.buffer.n_rows == 0 and not self._main_dead_count:
            return None
        view = DeltaView(
            self.buffer,
            self.buffer.focal_row(query.range_selections),
            self._packed_dead(),
            self._main_dead_count,
        )
        if view.dq_size == 0 and view.main_dead_packed is None:
            return None
        return view

    def _packed_dead(self) -> np.ndarray | None:
        if not self._main_dead_count:
            return None
        if self._main_dead_packed is None:
            self._main_dead_packed = kernels.pack(
                self._main_dead, self.index.tidset_words
            )
        return self._main_dead_packed
