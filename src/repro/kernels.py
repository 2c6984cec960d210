"""Vectorized bitset kernels: batched tidset operations over uint64 matrices.

The semantic reference for tidsets is :mod:`repro.tidset` — arbitrary
precision Python ints, one bit per record.  Those are ideal for *single*
set operations (CPython's big-int AND runs at C speed), but the online
operators spend their time on *batches*: qualify hundreds of candidate
MIPs against one focal tidset, intersect one tidset against every other
member of a CHARM equivalence class, count every antecedent of a rule
family.  Looping those through one big-int op per element pays a Python
dispatch per pair.

This module packs tidsets into rows of a ``(k, ceil(n / 64))`` uint64
numpy matrix (word ``w`` of a row holds tids ``64*w .. 64*w+63``,
little-endian — bit ``b`` of word ``w`` is tid ``64*w + b``) and provides
the batched kernels the hot paths need:

* :func:`and_count` — one vectorized AND + popcount returning all ``k``
  intersection cardinalities at once (the ELIMINATE / CHARM kernel);
* :func:`intersect_many`, :func:`union_reduce`, :func:`and_reduce` —
  batched set algebra;
* :func:`subset_of` — per-row containment tests;
* :func:`popcount` / :func:`popcount_rows` — elementwise and per-row
  popcounts (``np.bitwise_count``);
* :func:`pack` / :func:`pack_many` / :func:`unpack` — cheap converters
  between Python-int tidsets and packed rows;
* :class:`FocalKernel` — a focal subset's item rows, built by masking
  (each row ANDed with the focal row, full width: what the profile and
  the MIP plans count on) or by :func:`project_rows`, which repacks rows
  into the dense ``|D^Q|``-bit universe of one focal tidset so every
  later lookup ANDs ``|D^Q|/64`` words instead of ``n/64`` (what ARM
  mines on).

Everything here is an *optimization layer*: every kernel agrees exactly
with the pure-int reference (property-tested in
``tests/property/test_kernel_properties.py``), and callers keep int
tidsets at their boundaries.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

import numpy as np

__all__ = [
    "WORD_BITS",
    "LATTICE_SLAB_BYTES",
    "n_words",
    "pack",
    "pack_many",
    "unpack",
    "full_row",
    "zero_row",
    "popcount",
    "popcount_rows",
    "and_count",
    "intersect_many",
    "subset_of",
    "union_reduce",
    "and_reduce",
    "project_rows",
    "set_bits",
    "FocalKernel",
    "SubsetCells",
    "SubsetTable",
]

#: Bits per matrix word.
WORD_BITS = 64

#: Packed rows use explicit little-endian words so ``pack``/``unpack``
#: round-trip identically on any host byte order.
_WORD_DTYPE = np.dtype("<u8")

#: Cap on the word slab one chunk of a subset-lattice evaluation holds
#: (sources per chunk = cap / lattice bytes per source).  A few MiB stays
#: cache-resident through the ``2**n`` ANDs and the popcount that follow
#: — 150 width-6 sources over 500-word rows count in 14 ms at 4 MiB
#: against 41 ms at 64 MiB — and bounds what a query adds to peak RSS.
LATTICE_SLAB_BYTES = 4 << 20


# ---------------------------------------------------------------------------
# Converters: Python-int tidsets <-> packed uint64 rows
# ---------------------------------------------------------------------------


def n_words(n_bits: int) -> int:
    """Words needed for a universe of ``n_bits`` tids (at least one)."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    return max(1, -(-n_bits // WORD_BITS))


def pack(tidset: int, words: int) -> np.ndarray:
    """Pack one int tidset into a ``(words,)`` uint64 row.

    Raises ``OverflowError`` when the tidset does not fit in ``words``
    64-bit words — callers size rows from the universe, so this only
    fires on out-of-universe tids (a bug worth surfacing loudly).
    """
    if tidset < 0:
        raise ValueError("tidsets are non-negative")
    buf = tidset.to_bytes(words * 8, "little")
    return np.frombuffer(buf, dtype=_WORD_DTYPE).copy()


def pack_many(tidsets: Iterable[int] | Sequence[int], words: int) -> np.ndarray:
    """Pack many int tidsets into a ``(k, words)`` uint64 matrix."""
    chunks = [t.to_bytes(words * 8, "little") for t in tidsets]
    if not chunks:
        return np.zeros((0, words), dtype=_WORD_DTYPE)
    matrix = np.frombuffer(b"".join(chunks), dtype=_WORD_DTYPE)
    return matrix.reshape(len(chunks), words).copy()


def unpack(row: np.ndarray) -> int:
    """The int tidset of one packed row (inverse of :func:`pack`)."""
    return int.from_bytes(
        np.ascontiguousarray(row, dtype=_WORD_DTYPE).tobytes(), "little"
    )


def full_row(n_records: int, words: int) -> np.ndarray:
    """Packed row of ``tidset.full(n_records)`` (trailing bits clear)."""
    return pack((1 << n_records) - 1 if n_records else 0, words)


def zero_row(words: int) -> np.ndarray:
    """Packed row of the empty tidset."""
    return np.zeros(words, dtype=_WORD_DTYPE)


# ---------------------------------------------------------------------------
# Popcount kernels
# ---------------------------------------------------------------------------


def popcount(array: np.ndarray) -> np.ndarray:
    """Elementwise popcount of a uint64 array (same shape, uint8 counts)."""
    return np.bitwise_count(array)


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(k, words)`` matrix — ``k`` int64 counts.

    Accumulates in int32 (a row would need > 2**31 set bits to overflow —
    universes this library cannot hold in memory) and widens once at the
    end, which measurably beats a direct int64 reduction.
    """
    if matrix.size == 0:
        return np.zeros(matrix.shape[0], dtype=np.int64)
    return popcount(matrix).sum(axis=-1, dtype=np.int32).astype(np.int64)


# ---------------------------------------------------------------------------
# Batched set algebra
# ---------------------------------------------------------------------------


def and_count(matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``|row_i & mask|`` for every row — the batched local-count kernel."""
    return popcount_rows(matrix & mask)


def intersect_many(matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``row_i & mask`` for every row, as a new matrix."""
    return matrix & mask


def subset_of(matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Boolean per row: is ``row_i`` a subset of ``mask``?"""
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return ~np.any(matrix & ~mask, axis=-1)


def union_reduce(matrix: np.ndarray) -> np.ndarray:
    """OR of all rows (the empty matrix reduces to the empty tidset)."""
    if matrix.shape[0] == 0:
        return zero_row(matrix.shape[1] if matrix.ndim == 2 else 1)
    return np.bitwise_or.reduce(matrix, axis=0)


def and_reduce(matrix: np.ndarray, initial: np.ndarray | None = None) -> np.ndarray:
    """AND of all rows, optionally seeded with ``initial``.

    The empty matrix reduces to ``initial`` (or all-ones when omitted —
    the identity of AND; callers wanting the *universe* should pass
    :func:`full_row` so trailing bits stay clear).
    """
    if matrix.shape[0] == 0:
        if initial is not None:
            return initial.copy()
        words = matrix.shape[1] if matrix.ndim == 2 else 1
        return np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=_WORD_DTYPE)
    out = np.bitwise_and.reduce(matrix, axis=0)
    if initial is not None:
        out = out & initial
    return out


# ---------------------------------------------------------------------------
# Focal kernels: item rows masked or repacked to one focal subset
# ---------------------------------------------------------------------------


def _unpack_bits(array: np.ndarray) -> np.ndarray:
    """Per-row boolean bit view of packed rows, tid order (little-endian)."""
    flat = np.ascontiguousarray(array, dtype=_WORD_DTYPE)
    bits = np.unpackbits(flat.view(np.uint8), bitorder="little")
    if array.ndim == 2:
        return bits.reshape(array.shape[0], array.shape[1] * WORD_BITS)
    return bits.reshape(array.shape[0] * WORD_BITS)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_unpack_bits` for a ``(k, m)`` boolean matrix:
    pack each row's bits into ``ceil(m / 64)`` little-endian words."""
    k, m = bits.shape
    words = n_words(m)
    if m < words * WORD_BITS:
        padded = np.zeros((k, words * WORD_BITS), dtype=np.uint8)
        padded[:, :m] = bits
        bits = padded
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(_WORD_DTYPE).reshape(k, words)


def project_rows(matrix: np.ndarray, mask_row: np.ndarray) -> np.ndarray:
    """Repack each row's bits *at the set positions of* ``mask_row`` into a
    dense ``popcount(mask_row)``-bit universe (the focal projection).

    Position ``p`` of an output row holds the bit the input row carried at
    the ``p``-th set tid of ``mask_row``, so for any rows ``a``, ``b``::

        popcount(project(a) & project(b)) == popcount(a & b & mask)

    A space-time trade: one O(k x n) repack buys every later support
    lookup an AND over ``|D^Q|/64`` words instead of ``n/64``.  It pays
    only where lookups run in the thousands — ARM's CHARM and rule
    generation (:meth:`FocalKernel.project`); the MIP plans' few dozen
    lookups count on the masked rows instead.  The empty mask projects
    onto a single all-zero word (``n_words`` never returns 0).
    """
    positions = np.flatnonzero(_unpack_bits(mask_row))
    bits = _unpack_bits(np.atleast_2d(matrix))
    return _pack_bits(bits.take(positions, axis=1))


def set_bits(row: np.ndarray, positions: np.ndarray) -> None:
    """Set the given tid positions in one packed row, in place, vectorized.

    Duplicate positions are fine (OR is idempotent); positions must lie
    inside the row's universe.  This is the delta-store ingest primitive:
    appending a batch of records turns into one ``bitwise_or.at`` scatter
    per affected row instead of a per-record Python loop.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return
    if positions.min() < 0 or positions.max() >= row.shape[-1] * WORD_BITS:
        raise ValueError("bit position outside the row's universe")
    words = (positions >> 6).astype(np.intp)
    bits = np.uint64(1) << (positions & 63).astype(_WORD_DTYPE)
    np.bitwise_or.at(row, words, bits)


#: Per source width ``n``, the non-empty masks over a source's positions
#: in level (popcount) order, as columns to broadcast against sources:
#: ``(masks, parents, high, starts)`` — each mask, the mask of its parent
#: sub-itemset (itself minus its largest item, the highest set position),
#: that position, and the row where each level starts.  Built once per
#: width.
_LATTICE_TEMPLATES: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, list]] = {}


def _lattice_template(n: int):
    template = _LATTICE_TEMPLATES.get(n)
    if template is None:
        masks = np.arange(1, 1 << n, dtype=np.int32)
        level = popcount(masks.astype(_WORD_DTYPE))
        by_level = np.argsort(level, kind="stable")
        masks = masks[by_level]
        high = np.zeros(len(masks), dtype=np.intp)
        for b in range(1, n):
            high[masks >= 1 << b] = b
        starts = np.searchsorted(level[by_level], np.arange(1, n + 2))
        template = (
            masks[:, None], (masks - (1 << high).astype(np.int32))[:, None],
            high, starts.tolist(),
        )
        _LATTICE_TEMPLATES[n] = template
    return template


class FocalKernel:
    """Batched support counting over the item rows of one focal subset.

    Row ``i`` of ``matrix`` is item id ``i`` (all-zero for an item no
    focal record holds) and holds that item's *focal* records only, so
    the support of any itemset inside ``D^Q`` is the popcount of the AND
    of its items' rows — no per-lookup intersection with the focal
    tidset.  An itemset is a row of ascending ids.

    Two builds give the same counts.  :meth:`masked` ANDs each item row
    with the focal row over the table's full tidset width — one pass, no
    repacking — and is what the profile and the MIP plans count on.
    :meth:`project` repacks the rows into the dense ``|D^Q|``-bit
    universe (:func:`project_rows`) — an ``n_items x n`` bit repack that
    narrows every later AND to ``|D^Q|/64`` words — and is what ARM
    mines and counts on, thousands of intersections over one universe.
    Either way each record universe is its own block of words, so
    ``words`` is the matrix's width, not a function of ``dq_size``.
    """

    def __init__(self, matrix: np.ndarray, dq_size: int):
        self.dq_size = int(dq_size)
        if matrix.ndim != 2 or matrix.shape[1] == 0:
            raise ValueError(f"item rows of shape {matrix.shape}")
        self.words = matrix.shape[1]
        self.matrix = matrix
        #: sub-itemsets counted by an actual AND + popcount so far
        self.evaluations = 0

    @classmethod
    def masked(cls, n_items: int, universes) -> "FocalKernel":
        """The kernel over the focal records of several universes, each
        universe's item rows ANDed with its focal row (:meth:`_stacked`):
        a block of ``len(mask_row)`` words per universe."""
        return cls._stacked(n_items, universes, np.bitwise_and)

    @classmethod
    def project(cls, n_items: int, universes) -> "FocalKernel":
        """The kernel over the focal records of several universes, each
        universe's item rows repacked by :func:`project_rows`
        (:meth:`_stacked`): a block of ``n_words(size)`` words per
        universe, bit ``p`` of it the universe's ``p``-th focal record."""
        # ``project_rows`` is looked up per call: tracers wrap it.
        return cls._stacked(
            n_items, universes, lambda matrix, row: project_rows(matrix, row)
        )

    @classmethod
    def _stacked(cls, n_items: int, universes, restrict) -> "FocalKernel":
        """``universes`` lists ``(matrix, ids, mask_row, size)``: packed
        item rows over one record universe, the item id of each row
        (``None`` when row ``i`` is id ``i``), the universe's packed focal
        row and its popcount.  Each universe with focal records becomes
        one block of words, ``restrict(matrix, mask_row)``, the first
        universe's block first; one without focal records adds none."""
        dq_size = sum(size for *_, size in universes)
        parts = [
            (ids, restrict(matrix, mask_row))
            for matrix, ids, mask_row, size in universes
            if size
        ]
        if len(parts) == 1 and len(parts[0][1]) == n_items:
            return cls(parts[0][1], dq_size)  # one block holding every id
        rows = np.zeros(
            (n_items, sum(part.shape[1] for _, part in parts) or 1),
            dtype=_WORD_DTYPE,
        )
        at = 0
        for ids, part in parts:
            rows[slice(None) if ids is None else ids,
                 at:at + part.shape[1]] = part
            at += part.shape[1]
        return cls(rows, dq_size)

    @cached_property
    def supports(self) -> np.ndarray:
        """Every item's local support by id (int64), counted once."""
        return popcount_rows(self.matrix)

    def item_tidsets(self, keep: np.ndarray | None = None) -> list[int]:
        """The item rows as int tidsets, by item id — the focal subset in
        *vertical* form, what a tidset miner runs on (bit ``p`` of a
        projected kernel's tidset is the ``p``-th focal record of its
        block; a masked kernel's keep the records' own positions).

        ``keep`` (bool by id) reads only those rows; the others read as
        the empty tidset."""
        data = self.matrix.tobytes()
        stride = self.words * 8
        starts = range(0, len(data), stride)
        if keep is None:
            return [int.from_bytes(data[at:at + stride], "little")
                    for at in starts]
        return [
            int.from_bytes(data[at:at + stride], "little") if kept else 0
            for at, kept in zip(starts, keep.tolist())
        ]

    def count_subset_lattice(
        self,
        itemsets,
        floor: int | None = None,
        *,
        table: "SubsetTable | None" = None,
        rows=None,
    ) -> "SubsetCells":
        """Support counts of *every* sub-itemset of every source, from one
        table of the request's distinct sub-itemsets.

        ``itemsets`` is an ``(M, w)`` id matrix (or same-length id tuples),
        one source per row: ascending item ids, right-padded with any
        value ``>= n_items`` where a source is narrower than ``w``.  The
        result is one flat :class:`SubsetCells` layout: the sources of one
        item or more by ascending width (input order within a width),
        each followed by its ``2**n`` cells mask by mask — a cell's local
        support ``|t(S) ∩ D^Q|`` (``mask == 0`` is the empty itemset:
        ``|D^Q|``) and the position of ``S`` among the table's
        sub-itemsets in id-tuple order, what
        :func:`repro.itemsets.rules.rules_from_subset_lattices` extracts
        and orders rules from.  Positions compare only within one call's
        result, or across calls reading the same ``table``.

        With ``floor`` the sources are not ``itemsets`` themselves but
        their *distinct* sub-itemsets of two items or more whose support
        reaches ``floor`` (at least 1) — the expanded-mode rule sources.

        Sub-itemsets shared by overlapping sources are the norm (ten to
        fifteen ``(source, mask)`` cells per distinct sub-itemset on the
        benchmark tables), so each *distinct* one is ANDed and popcounted
        once: cells are named level by level by the prefix id ``parent *
        n_items + largest item`` — which never outgrows a machine word,
        however many items the schema has — and a level's distinct ids
        are one batched ``row[parent] & row[item]``.  The cells' counts
        and positions are gathers from that table.

        Naming is most of that work, and it depends only on the sources,
        so a fixed source list can be named once (:class:`SubsetTable`):
        with ``table`` and ``rows`` — ``itemsets`` being the table's
        sources at positions ``rows`` — the cells are gathered from it, and
        only the distinct sub-itemsets they touch are ANDed (the MIP
        plans' path: every index names its MIPs' table at build, fold and
        load).  ``floor`` does not combine with ``table``.
        """
        n_items = len(self.matrix)
        sources = np.asarray(itemsets, dtype=np.intp)
        if sources.ndim != 2:  # no sources at all
            sources = sources.reshape(0, 0)
        if table is not None:
            if floor is not None:
                raise ValueError("a named table holds no expanded sources")
            layout, nodes, levels, order = table.gather(sources, rows)
            if not len(layout[1]):
                return SubsetCells.empty(layout[0])
            counts = self._count_levels(levels).take(nodes)
            return SubsetCells(*layout, counts, order)
        _, layout = _width_layout(sources, (sources < n_items).sum(axis=1))
        if not len(layout[1]):
            return SubsetCells.empty(layout[0])
        _check_tractable(layout[2])
        nodes, levels = _name_cells(layout, n_items)
        counts = self._count_levels(levels)
        if floor is not None:
            # The table holds every sub-itemset of the frequent ones, so
            # their lattices are a second naming pass over it: no new AND.
            frequent = _frequent_nodes(levels, counts, max(int(floor), 1))
            _, layout = _width_layout(
                frequent, (frequent < n_items).sum(axis=1)
            )
            if not len(layout[1]):
                return SubsetCells.empty(layout[0])
            nodes, _ = _name_cells(layout, n_items, levels)
        return SubsetCells(
            *layout, counts.take(nodes), _node_ranks(levels, n_items).take(nodes)
        )

    def _count_levels(self, levels: list) -> np.ndarray:
        """Support count of every node of the sub-itemset table, by node
        id (int32): the empty itemset, the items, then each level's
        distinct sub-itemsets.

        A level-``L`` row is its parent's row ANDed with its largest
        item's; nodes of a level are in lexicographic order, so the
        sub-itemsets that start with an item range are one slice per
        level, and the table is filled one such range at a time — never
        more than about :data:`LATTICE_SLAB_BYTES` of rows at once,
        however wide the universe.
        """
        n_items = len(self.matrix)
        counts = np.empty(levels[-1][0][1] if levels else 1 + n_items,
                          dtype=np.int32)
        counts[0] = self.dq_size
        counts[1:1 + n_items] = self.supports
        if not levels:
            return counts
        self.evaluations += len(counts) - 1 - n_items
        budget = max(1, LATTICE_SLAB_BYTES // (self.words * 8))
        for cuts in _slab_cuts(levels, n_items, budget):
            # One slab holds the chunk's rows of every level, level 2
            # first; a parent is found at its level's offset in it.
            sizes = [hi - lo for lo, hi in cuts]
            slab = np.empty((sum(sizes), self.words), dtype=_WORD_DTYPE)
            source, shift, at = self.matrix, -1, 0
            for ((first, _), parents, items), (lo, hi), size in zip(
                levels, cuts, sizes
            ):
                np.bitwise_and(
                    source.take(parents[lo:hi] + shift, axis=0),
                    self.matrix.take(items[lo:hi], axis=0),
                    out=slab[at:at + size],
                )
                # The next level's parents are this level's nodes.
                source, shift, at = slab, at - (first + lo), at + size
            chunk = popcount_rows(slab)
            at = 0
            for ((first, _), _, _), (lo, hi), size in zip(levels, cuts, sizes):
                counts[first + lo:first + hi] = chunk[at:at + size]
                at += size
        return counts


class SubsetCells:
    """The sub-itemset cells of a request's sources, source after source:
    what :meth:`FocalKernel.count_subset_lattice` returns.

    ``ids`` is the sources' right-padded ``(M, w)`` id matrix (ascending
    ids, padding ``>= n_items``), by ascending width and in input order
    within a width; ``widths`` their widths (at least 1); ``offsets``
    (``M + 1`` int64) where each source's ``2**width`` cells start.  Cell
    ``offsets[j] + mask`` is the sub-itemset of source ``j`` that
    ``mask``'s bits select: ``counts`` holds its support (the source's
    first cell is the empty itemset, its last the source itself) and
    ``order`` its position among the table's sub-itemsets in id-tuple
    order.  Both are flat int32, eight bytes a cell; the complement of
    cell ``c`` within a source spanning cells ``s..e`` is ``s + e - c``.
    """

    __slots__ = ("ids", "widths", "offsets", "counts", "order")

    def __init__(self, ids, widths, offsets, counts, order):
        self.ids = ids
        self.widths = widths
        self.offsets = offsets
        self.counts = counts
        self.order = order

    @classmethod
    def empty(cls, ids: np.ndarray) -> "SubsetCells":
        """No source: ``ids`` is a ``(0, w)`` id matrix."""
        none = np.zeros(0, dtype=np.int32)
        return cls(ids, np.zeros(0, dtype=np.intp),
                   np.zeros(1, dtype=np.int64), none, none)

    def __len__(self) -> int:
        return len(self.widths)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return self.ids, self.widths, self.offsets, self.counts, self.order

    def narrowed(self) -> "SubsetCells":
        """The same layout with int32 ids (padding clipped, still ``>=
        n_items``), uint8 widths and int32 offsets — a cell count is
        below ``2**31`` — what the lattice cache stores, so an entry
        weighs about what the cells themselves do."""
        return SubsetCells(
            np.minimum(self.ids, np.iinfo(np.int32).max).astype(np.int32),
            self.widths.astype(np.uint8),
            self.offsets.astype(np.int32),
            self.counts,
            self.order,
        )

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self.arrays())


class SubsetTable:
    """The sub-itemset table of a fixed list of sources, named once.

    What :meth:`FocalKernel.count_subset_lattice` names for a request —
    the distinct sub-itemsets (node 0 the empty itemset, node ``1 + i``
    item ``i``, then the itemsets of two items or more level by level,
    each node the node ``parents[k]`` extended by its largest item
    ``items[k]``, ``k`` its id less ``1 + n_items``), each node's position
    in id-tuple order (``ranks``) and the node of every ``(source, mask)``
    cell — depends on the sources alone, never on the records counted.
    Built over all of an index's MIPs
    (:func:`repro.core.mipindex.assemble_index`), it turns a request's
    naming into a gather: source ``r``'s cells are ``cells[starts[r]:
    starts[r] + 2**widths[r]]``, mask by mask.  Ranks keep their order
    within any subset of the nodes, so rules extracted from gathered
    cells come out as from a table named for the subset.
    """

    __slots__ = (
        "n_items", "bounds", "parents", "items", "ranks", "cells", "starts",
        "widths",
    )

    def __init__(self, sources, n_items: int):
        sources = np.asarray(sources, dtype=np.intp)
        self.n_items = n_items
        self.widths = (sources < n_items).sum(axis=1)
        self.starts = np.zeros(len(sources), dtype=np.int64)
        picks, layout = _width_layout(sources, self.widths)
        levels = []
        self.cells = np.zeros(0, dtype=np.int32)
        if len(picks):
            _check_tractable(layout[2])
            self.cells, levels = _name_cells(layout, n_items)
            self.starts[picks] = layout[2][:-1]
        self.ranks = _node_ranks(levels, n_items)
        #: Node ids where each level of two items or more starts, and
        #: where the last ends.
        self.bounds = [first for (first, _), _, _ in levels] + [len(self.ranks)]
        self.parents, self.items = (
            np.concatenate([level[k] for level in levels]).astype(np.int32)
            if levels else np.zeros(0, dtype=np.int32)
            for k in (1, 2)
        )
        for array in (self.widths, self.starts, self.cells, self.ranks,
                      self.parents, self.items):
            array.setflags(write=False)

    def gather(self, sources: np.ndarray, rows) -> tuple:
        """The sources at positions ``rows`` (``sources`` their id matrix)
        as :meth:`FocalKernel.count_subset_lattice` lays them out:
        ``(layout, nodes, levels, order)`` — the :class:`SubsetCells`
        ``(ids, widths, offsets)``, every cell's node in a compact table
        holding only the nodes the cells touch (the empty itemset and the
        items keep their ids), that table's levels as :func:`_name_cells`
        gives them, and every cell's position."""
        rows = np.asarray(rows, dtype=np.intp)
        picks, layout = _width_layout(sources, self.widths.take(rows))
        widths, offsets = layout[1:]
        if not len(widths):
            return layout, None, None, None
        # One run of cell ids per source, from its start in the table.
        at = np.repeat(self.starts.take(rows.take(picks)) - offsets[:-1],
                       1 << widths)
        at += np.arange(offsets[-1])
        nodes = self.cells.take(at).astype(np.intp)
        # A sub-itemset's parent is a sub-itemset of the same source, so
        # the touched nodes are closed under it: each level of the compact
        # table is the touched slice of the full one, in the same order.
        base = 1 + self.n_items
        touched = np.zeros(len(self.ranks), dtype=bool)
        touched[:base] = True
        touched[nodes] = True
        kept = np.flatnonzero(touched)
        local = np.empty(len(touched), dtype=np.intp)
        local[kept] = np.arange(len(kept))
        above = kept[base:] - base
        parents = local.take(self.parents.take(above))
        items = self.items.take(above)
        bounds = np.searchsorted(kept, self.bounds).tolist()
        levels = [
            ((lo, hi), parents[lo - base:hi - base], items[lo - base:hi - base])
            for lo, hi in zip(bounds, bounds[1:])
            if lo < hi
        ]
        return layout, local.take(nodes), levels, self.ranks.take(nodes)


def _check_tractable(offsets: np.ndarray) -> None:
    if offsets[-1] >= 1 << 31:
        raise ValueError(  # pragma: no cover - tens of gigabytes of cells
            "the sources' subset lattices are not tractable"
        )


def _width_layout(sources: np.ndarray, widths: np.ndarray) -> tuple:
    """``(picks, (ids, widths, offsets))``: the positions of the sources
    of width ``>= 1`` by ascending width, in input order within a width,
    and the :class:`SubsetCells` layout of those sources, each source's
    ``2**width`` cells starting at its offset."""
    picks = np.argsort(widths, kind="stable")
    widths = widths.take(picks)
    skip = np.searchsorted(widths, 1)
    picks, widths = picks[skip:], widths[skip:]
    offsets = np.zeros(len(picks) + 1, dtype=np.int64)
    np.cumsum(1 << widths, out=offsets[1:])
    return picks, (sources.take(picks, axis=0), widths, offsets)


def _width_runs(widths: np.ndarray) -> list[tuple[int, int, int]]:
    """``(n, lo, hi)`` per width ``n`` present in ascending ``widths``:
    positions ``lo..hi - 1`` are that wide."""
    cuts = np.bincount(widths).cumsum().tolist()
    return [
        (n, lo, hi)
        for n, (lo, hi) in enumerate(zip([0] + cuts, cuts))
        if lo < hi
    ]


def _name_cells(
    layout: tuple, n_items: int, known: list | None = None
) -> tuple[np.ndarray, list]:
    """Name every ``(source, mask)`` cell of the ``(ids, widths,
    offsets)`` of a :class:`SubsetCells` layout by the node id of its
    sub-itemset.

    Returns ``(nodes, levels)``: ``nodes`` lists the cells as the layout
    does, source by source, mask by mask; node 0 is the empty itemset,
    node ``1 + i`` item ``i``, and ``levels[k]`` describes the distinct
    sub-itemsets of ``k + 2`` items as ``((first, end), parents, items)``
    — node ids ``first..end - 1`` in lexicographic order, each the node
    ``parents[j]`` extended by its largest item ``items[j]``.  With
    ``known`` (the levels of an earlier call whose sources contain these)
    cells are looked up instead and no level is made.
    """
    # Per level, every width's cells of that level: their index in
    # ``nodes``, their parent cell's, and their largest item (32-bit: a
    # request's cells are what its transient footprint is made of).
    sources, widths, offsets = layout
    deepest = int(widths[-1])
    cells, parents, items = ([[] for _ in range(deepest)] for _ in range(3))
    for n, a, b in _width_runs(widths):
        masks, parent_masks, high, starts = _lattice_template(n)
        # Each source's cell 0, then masks down the rows, sources across.
        first = offsets[a:b].astype(np.int32)
        pieces = (
            masks + first,
            parent_masks + first,
            sources[a:b, :n].astype(np.int32).T.take(high, axis=0),
        )
        for k, (lo, hi) in enumerate(zip(starts, starts[1:])):
            for level, piece in zip((cells, parents, items), pieces):
                level[k].append(piece[lo:hi].ravel())
    nodes = np.zeros(offsets[-1], dtype=np.int32)
    nodes[_joined(cells[0])] = _joined(items[0]) + 1
    levels = [] if known is None else known
    first, end = 1, 1 + n_items  # the node ids of the level below
    for k in range(1, deepest):
        # A cell's prefix id: its parent's rank in the level below, then
        # its largest item.  Ranks follow key order, so a level lists its
        # sub-itemsets lexicographically.
        keys = nodes.take(_joined(parents[k])).astype(np.int64)
        keys -= first
        keys *= n_items
        keys += _joined(items[k])
        if known is None:
            distinct, named = _distinct(keys, (end - first) * n_items)
            below, largest = np.divmod(distinct, n_items)
            below += first
            first, end = end, end + len(distinct)
            levels.append(((first, end), below, largest))
        else:
            (lo, hi), below, largest = known[k - 1]
            named = np.searchsorted((below - first) * n_items + largest, keys)
            first, end = lo, hi
        named += first
        nodes[_joined(cells[k])] = named
    return nodes, levels


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _distinct(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``keys`` (all within ``[0, bound)``)
    and every key's rank among them.

    A dense key space is deduplicated by address — one flag per possible
    key, no sort — which is what a level of sub-itemsets almost always
    is (``parents x items`` slots for an order of magnitude more cells);
    a sparse one (a wide schema, few sources) is sorted.
    """
    if bound > 8 * len(keys) + (1 << 16):
        return np.unique(keys, return_inverse=True)
    seen = np.zeros(bound, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    rank = np.empty(bound, dtype=np.int32)
    rank[distinct] = np.arange(len(distinct), dtype=np.int32)
    return distinct, rank.take(keys)


def _frequent_nodes(levels: list, counts: np.ndarray, floor: int) -> np.ndarray:
    """The sub-itemsets of two items or more counted at ``floor`` or
    above, as a right-padded ``(k, deepest level)`` id matrix."""
    n_items = levels[0][0][0] - 1 if levels else 0
    width = len(levels) + 1
    chains = np.arange(n_items).reshape(-1, 1)  # level-1 id rows
    first = 1
    frequent = []
    for (lo, hi), parents, items in levels:
        chains = np.column_stack([chains.take(parents - first, axis=0), items])
        first = lo
        kept = chains[counts[lo:hi] >= floor]
        frequent.append(
            np.pad(kept, ((0, 0), (0, width - kept.shape[1])),
                   constant_values=n_items)
        )
    if not frequent:
        return np.zeros((0, 0), dtype=np.intp)
    return np.concatenate(frequent)


def _node_ranks(levels: list, n_items: int) -> np.ndarray:
    """Every node's position in id-tuple order, by node id (int32).

    A node's key packs its ids plus one into fixed-width fields, the
    first id highest and 0 where the itemset has ended, so a prefix sorts
    before its extensions exactly as a shorter tuple does; a level's keys
    are its parents' with the largest item's field filled in.  One
    ``lexsort`` over the key words ranks them (one word unless the
    deepest level needs more than one int64).
    """
    n_nodes = levels[-1][0][1] if levels else 1 + n_items
    bits = n_items.bit_length()
    per_word = 63 // bits
    keys = np.zeros((-(-(len(levels) + 1) // per_word), n_nodes),
                    dtype=np.int64)

    def field(position: int) -> tuple[int, int]:
        word, slot = divmod(position, per_word)
        return word, (per_word - 1 - slot) * bits

    word, shift = field(0)
    keys[word, 1:1 + n_items] = np.arange(1, n_items + 1) << shift
    for position, ((first, end), parents, items) in enumerate(levels, 1):
        word, shift = field(position)
        level = keys.take(parents, axis=1)
        level[word] |= (items + 1) << shift
        keys[:, first:end] = level
    order = np.lexsort(keys[::-1])
    ranks = np.empty(n_nodes, dtype=np.int32)
    ranks[order] = np.arange(n_nodes, dtype=np.int32)
    return ranks


def _slab_cuts(levels: list, n_items: int, budget: int):
    """Split the table into item ranges whose rows fit ``budget`` rows of
    a slab: yields, per range, the ``(lo, hi)`` slice of every level
    holding the sub-itemsets whose smallest item lies in the range."""
    sizes = [end - first for (first, end), _, _ in levels]
    if sum(sizes) <= budget:
        yield [(0, size) for size in sizes]
        return
    # The smallest item of every node, level by level, then how many
    # nodes of each level start with each item.
    root = np.arange(n_items)
    first = 1
    starts = []
    for (lo, _), parents, _ in levels:
        root = root.take(parents - first)
        first = lo
        starts.append(np.searchsorted(root, np.arange(n_items + 1)))
    weight = np.sum(starts, axis=0)  # rows of items below each boundary
    item_cuts = np.unique(np.append(
        np.searchsorted(weight, np.arange(0, weight[-1], budget)), n_items
    )).tolist()
    for a, b in zip(item_cuts, item_cuts[1:]):
        yield [(int(start[a]), int(start[b])) for start in starts]
