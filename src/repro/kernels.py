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
  popcounts, via ``np.bitwise_count`` on numpy >= 2 and a 16-bit
  lookup table on older numpy;
* :func:`pack` / :func:`pack_many` / :func:`unpack` — cheap converters
  between Python-int tidsets and packed rows;
* :func:`project_rows` / :class:`FocalKernel` — the focal projection:
  repack rows into the dense ``|D^Q|``-bit universe of one focal tidset,
  so every subsequent support lookup ANDs ``|D^Q|/64`` words instead of
  ``n/64`` (the rule-generation hot path).

Everything here is an *optimization layer*: every kernel agrees exactly
with the pure-int reference (property-tested in
``tests/property/test_kernel_properties.py``), and callers keep int
tidsets at their boundaries.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "WORD_BITS",
    "HAS_BITWISE_COUNT",
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
    "andnot_count",
    "intersect_many",
    "subset_of",
    "union_reduce",
    "and_reduce",
    "is_zero_rows",
    "project_rows",
    "set_bits",
    "FocalKernel",
    "CombinedFocalKernel",
]

#: Bits per matrix word.
WORD_BITS = 64

#: Whether this numpy has a native popcount ufunc (numpy >= 2.0).
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Dispatch flag for the popcount implementation.  Tests flip this to
#: exercise the lookup-table fallback on modern numpy as well.
_use_bitwise_count = HAS_BITWISE_COUNT

#: Packed rows use explicit little-endian words so ``pack``/``unpack``
#: round-trip identically on any host byte order.
_WORD_DTYPE = np.dtype("<u8")

#: Cap on the word slab one chunk of a subset-lattice evaluation holds
#: (sources per chunk = cap / lattice bytes per source).  A few MiB stays
#: cache-resident through the ``2**n`` ANDs and the popcount that follow
#: — 150 width-6 sources over 500-word rows count in 14 ms at 4 MiB
#: against 41 ms at 64 MiB — and bounds what a query adds to peak RSS.
LATTICE_SLAB_BYTES = 4 << 20

_POPCOUNT16: np.ndarray | None = None


def _popcount16_table() -> np.ndarray:
    """The 65536-entry per-uint16 popcount table (built once, ~64 KiB)."""
    global _POPCOUNT16
    if _POPCOUNT16 is None:
        counts = np.arange(1 << 16, dtype=np.uint16)
        table = np.zeros(1 << 16, dtype=np.uint8)
        while counts.any():
            table += (counts & 1).astype(np.uint8)
            counts >>= 1
        _POPCOUNT16 = table
    return _POPCOUNT16


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
    if _use_bitwise_count:
        return np.bitwise_count(array)
    table = _popcount16_table()
    halves = np.ascontiguousarray(array, dtype=_WORD_DTYPE).view("<u2")
    counts = table[halves]
    # Four uint16 halves per word: fold back to the word shape.
    return counts.reshape(*array.shape, 4).sum(axis=-1, dtype=np.uint8)


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


def andnot_count(matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``|row_i & ~mask|`` for every row (diffset arithmetic)."""
    return popcount_rows(matrix & ~mask)


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


def is_zero_rows(matrix: np.ndarray) -> np.ndarray:
    """Boolean per row: is the row the empty tidset?"""
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return ~np.any(matrix, axis=-1)


# ---------------------------------------------------------------------------
# Focal projection: repacking rows into a dense |D^Q|-bit universe
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

    This is the space-time trade behind the rule-generation kernels: one
    O(k x n) repack per query buys every subsequent support lookup an AND
    over ``|D^Q|/64`` words instead of ``n/64``.  The empty mask projects
    onto a single all-zero word (``n_words`` never returns 0).
    """
    sel = _unpack_bits(mask_row).astype(bool)
    bits = _unpack_bits(np.atleast_2d(matrix))
    return _pack_bits(bits[:, sel])


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


class FocalKernel:
    """Batched support counting over one focal-projected universe.

    Built once per query (or shared across a multi-query batch) from the
    packed single-item tidset rows and the packed focal tidset: the item
    rows are gathered and repacked into the dense ``|D^Q|``-bit universe,
    after which the support of any itemset inside ``D^Q`` is just the
    popcount of the AND of its items' *projected* rows — no per-lookup
    intersection with the focal tidset, and ``|D^Q|/64``-word operands.

    Keys are arbitrary hashables (the callers use
    :class:`~repro.dataset.schema.Item`); an *itemset* is a tuple of keys.
    Keys absent from ``row_of`` count as empty tidsets (an item that
    occurs in no record supports nothing), matching the int-tidset
    reference semantics.
    """

    def __init__(
        self,
        item_matrix: np.ndarray,
        row_of: Mapping[Hashable, int],
        mask_row: np.ndarray,
        dq_size: int,
    ):
        self.dq_size = int(dq_size)
        self.words = n_words(self.dq_size)
        self._row_of = dict(row_of)
        self.matrix = project_rows(item_matrix, mask_row)
        if self.matrix.shape[1] != self.words:  # pragma: no cover - defensive
            raise ValueError(
                f"projected to {self.matrix.shape[1]} words for a "
                f"{self.dq_size}-bit universe ({self.words} words)"
            )
        self._zero = zero_row(self.words)
        #: itemset -> projected row (prefix-chain memo for scalar lookups)
        self._rows: dict[tuple, np.ndarray] = {}
        self._counts: dict[tuple, int] = {(): self.dq_size}
        #: support lookups answered by actual kernel evaluation (not cache)
        self.evaluations = 0

    def nbytes(self) -> int:
        """Footprint of the projected item matrix (the per-query cost)."""
        return int(self.matrix.nbytes)

    def item_tidsets(self) -> dict[Hashable, int]:
        """The projected item rows as int tidsets over the dense universe
        — the focal subset in *vertical* form (bit ``p`` of an item's
        tidset is the ``p``-th focal record), what a tidset miner runs on."""
        data = self.matrix.tobytes()
        stride = self.words * 8
        return {
            key: int.from_bytes(data[i * stride:(i + 1) * stride], "little")
            for key, i in self._row_of.items()
        }

    def _item_row(self, key: Hashable) -> np.ndarray:
        idx = self._row_of.get(key)
        return self._zero if idx is None else self.matrix[idx]

    def _itemset_row(self, itemset: tuple) -> np.ndarray:
        """Projected row of an itemset, via the memoized prefix chain."""
        row = self._rows.get(itemset)
        if row is not None:
            return row
        if len(itemset) == 1:
            row = self._item_row(itemset[0])
        else:
            row = self._itemset_row(itemset[:-1]) & self._item_row(itemset[-1])
        self._rows[itemset] = row
        return row

    def seed(self, itemset: tuple, count: int) -> None:
        """Pre-seed a known support count (e.g. ELIMINATE's exact locals).

        Seeded counts are served from the memo without evaluation; an
        already-known itemset keeps its existing count (they agree by the
        projection invariant, so first-write-wins is arbitrary but cheap).
        """
        self._counts.setdefault(itemset, int(count))

    def count(self, itemset: tuple) -> int:
        """``|t(itemset) ∩ D^Q|`` for one itemset (memoized)."""
        cached = self._counts.get(itemset)
        if cached is not None:
            return cached
        self.evaluations += 1
        count_ = int(popcount_rows(self._itemset_row(itemset)[None, :])[0])
        self._counts[itemset] = count_
        return count_

    def count_subset_lattice(self, itemsets: Sequence[tuple]) -> np.ndarray:
        """Support counts of *every* sub-itemset of each itemset, at once.

        ``itemsets`` must all share one length ``n``; the result is an
        ``(m, 2**n)`` int64 matrix where ``counts[j, mask]`` is the local
        support ``|t(S) ∩ D^Q|`` of the sub-itemset ``S`` selected by the
        bits of ``mask`` from ``itemsets[j]`` (``mask == 0`` is the empty
        itemset: ``|D^Q|``).

        This is the rule-generation kernel proper: the subset lattice of
        each source is filled by the standard mask recurrence
        ``row[mask] = row[mask & (mask - 1)] & item_row[lowbit(mask)]`` —
        ``2**n`` *vectorized* ANDs over ``(m, words)`` slabs, then one
        batched popcount — so no per-subset Python objects (tuples,
        hashes, memo probes) ever exist.  Redundant counts across sources
        that share sub-itemsets cost only word-ops, which the projection
        already made narrow; the tuple domain is what was expensive.

        Work is chunked so the lattice slab stays within a fixed memory
        budget regardless of ``m``.
        """
        m = len(itemsets)
        if m == 0:
            return np.zeros((0, 1), dtype=np.int64)
        n = len(itemsets[0])
        if any(len(s) != n for s in itemsets):
            raise ValueError("count_subset_lattice needs same-length itemsets")
        if n == 0:
            return np.full((m, 1), self.dq_size, dtype=np.int64)
        if n >= 60:  # pragma: no cover - astronomically wide itemsets
            raise ValueError(f"subset lattice of width {n} is not tractable")
        sentinel = self.matrix.shape[0]
        ext = np.vstack([self.matrix, self._zero[None, :]])
        idx = np.array(
            [[self._row_of.get(key, sentinel) for key in s] for s in itemsets],
            dtype=np.intp,
        )
        size = 1 << n
        universe = pack((1 << self.dq_size) - 1, self.words)
        counts = np.empty((m, size), dtype=np.int64)
        counts[:, 0] = self.dq_size
        chunk = max(1, LATTICE_SLAB_BYTES // (size * self.words * 8))
        lowbit = [(mask & -mask).bit_length() - 1 for mask in range(size)]
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            rows = ext[idx[lo:hi]]  # (c, n, words)
            lattice = np.empty((hi - lo, size, self.words), dtype=_WORD_DTYPE)
            lattice[:, 0] = universe
            for mask in range(1, size):
                np.bitwise_and(
                    lattice[:, mask & (mask - 1)],
                    rows[:, lowbit[mask]],
                    out=lattice[:, mask],
                )
            counts[lo:hi] = popcount_rows(
                lattice.reshape(-1, self.words)
            ).reshape(hi - lo, size)
        self.evaluations += m * (size - 1)
        return counts

    def frequent_subsets(
        self,
        itemsets: Sequence[tuple],
        floor: int,
        min_width: int = 2,
    ) -> list[tuple]:
        """The *distinct* sub-itemsets of ``itemsets`` whose projected
        support reaches ``floor`` (at least 1) with at least ``min_width``
        items — the expanded-mode source discovery.

        Sub-itemsets shared by many overlapping closures are the norm, so
        deduplication happens in array space: each qualifying ``(itemset,
        mask)`` pair is encoded as a *set signature* — a bitmask over the
        kernel's global item rows, OR-reduced per word — and duplicate
        signatures collapse with one sort before a single Python tuple is
        built.  The encoding is canonical (a set of item rows has exactly
        one signature, regardless of which closure it was reached
        through), and items absent from the kernel's matrix can never
        qualify (their rows are empty, so any superset counts 0), so the
        sentinel id they encode to is never observed.
        """
        floor = max(int(floor), 1)
        groups: dict[int, list[tuple]] = {}
        for itemset in itemsets:
            groups.setdefault(len(itemset), []).append(itemset)
        widths = [n for n in groups if n >= min_width]
        if not widths:
            return []
        sentinel = self.matrix.shape[0]
        sig_words = (sentinel + 1 + WORD_BITS - 1) // WORD_BITS
        chunks: list[np.ndarray] = []
        for n in sorted(widths):
            group = groups[n]
            counts = self.count_subset_lattice(group)
            size = 1 << n
            mask_widths = popcount(
                np.arange(size, dtype=_WORD_DTYPE)
            ).astype(np.int64)
            qual = (counts >= floor) & (mask_widths >= min_width)[None, :]
            js, masks = np.nonzero(qual)
            if len(js) == 0:
                continue
            ids = np.array(
                [
                    [self._row_of.get(key, sentinel) for key in s]
                    for s in group
                ],
                dtype=np.int64,
            )
            id_word = ids >> 6  # (m, n)
            id_bit = np.uint64(1) << (ids & 63).astype(_WORD_DTYPE)
            bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
            sel_word = id_word[js]  # (K, n)
            sel_bit = np.where(bits, id_bit[js], np.uint64(0))
            sig = np.zeros((len(js), sig_words), dtype=_WORD_DTYPE)
            for w in range(sig_words):
                contrib = np.where(sel_word == w, sel_bit, np.uint64(0))
                sig[:, w] = np.bitwise_or.reduce(contrib, axis=1)
            chunks.append(sig)
        if not chunks:
            return []
        sigs = np.concatenate(chunks, axis=0)
        if sig_words == 1:
            uniq = np.unique(sigs[:, 0])[:, None]
        else:
            order = np.lexsort(sigs.T[::-1])
            ordered = sigs[order]
            keep = np.concatenate(
                [[True], np.any(ordered[1:] != ordered[:-1], axis=1)]
            )
            uniq = ordered[keep]
        key_of = {row: key for key, row in self._row_of.items()}
        out: list[tuple] = []
        for row in uniq.tolist():
            items = []
            for w, word in enumerate(row):
                base = w << 6
                while word:
                    low = word & -word
                    items.append(key_of[base + low.bit_length() - 1])
                    word ^= low
            out.append(tuple(sorted(items)))
        return out

    def count_family(self, family: Iterable[tuple]) -> dict[tuple, int]:
        """Supports of a whole itemset family, evaluated level by level.

        The family is closed under prefixes internally (the row of
        ``(a, b, c)`` is ``row((a, b)) & row(c)``), every level is one
        batched AND over the previous level's matrix, and all counts of a
        level come from a single :func:`popcount_rows` call — the batched
        replacement for one big-int AND chain per family member.  Returns
        counts for the requested family *and* any prefixes pulled in.
        """
        needed: set[tuple] = set()
        for itemset in family:
            for length in range(1, len(itemset) + 1):
                prefix = itemset[:length]
                if prefix not in self._counts:
                    needed.add(prefix)
        out: dict[tuple, int] = {}
        if not needed:
            return out
        by_len: dict[int, list[tuple]] = {}
        for itemset in needed:
            by_len.setdefault(len(itemset), []).append(itemset)
        self.evaluations += len(needed)
        for length in sorted(by_len):
            sets_l = sorted(by_len[length])
            if length == 1:
                level = np.vstack([self._item_row(s[0]) for s in sets_l])
            else:
                parents = np.vstack(
                    [self._itemset_row(s[:-1]) for s in sets_l]
                )
                items = np.vstack([self._item_row(s[-1]) for s in sets_l])
                level = parents & items
            counts = popcount_rows(level)
            for j, itemset in enumerate(sets_l):
                self._rows[itemset] = level[j]
                count_ = int(counts[j])
                self._counts[itemset] = count_
                out[itemset] = count_
        return out


class CombinedFocalKernel:
    """Two focal kernels — a main-index projection and a delta-store
    projection — presented as one: every count is the exact sum of the
    two universes' counts.

    This is how the delta store rides the rule-generation kernel without
    touching the operators: :class:`~repro.core.operators.QueryContext`
    hands VERIFY a combined kernel whenever a delta is attached, the mask
    recurrence runs once per universe (main rows are ``|D^Q_main|/64``
    words, delta rows a handful of words), and the two int64 lattices add
    elementwise — one vectorized partial, no per-record Python loops.

    ``seed`` is a deliberate no-op: qualified candidates arrive with
    *combined* local counts, which belong to neither underlying universe;
    seeding either kernel with them would corrupt its memo, and the seed
    is only ever a cache (``FocalKernel.seed`` documents first-write-wins
    semantics), so dropping it costs at most a few re-evaluations.
    """

    def __init__(self, main: FocalKernel, delta: FocalKernel):
        self.main = main
        self.delta = delta
        self.dq_size = main.dq_size + delta.dq_size

    @property
    def evaluations(self) -> int:
        return self.main.evaluations + self.delta.evaluations

    def nbytes(self) -> int:
        return self.main.nbytes() + self.delta.nbytes()

    def item_tidsets(self) -> dict[Hashable, int]:
        """Item tidsets over the stacked universe: the main focal records
        first, the delta focal records after them."""
        tidsets = self.main.item_tidsets()
        shift = self.main.dq_size
        for key, mask in self.delta.item_tidsets().items():
            if mask:
                tidsets[key] = tidsets.get(key, 0) | (mask << shift)
        return tidsets

    def seed(self, itemset: tuple, count: int) -> None:
        """No-op (see class docstring): combined counts are not seedable."""

    def count(self, itemset: tuple) -> int:
        return self.main.count(itemset) + self.delta.count(itemset)

    def count_subset_lattice(self, itemsets: Sequence[tuple]) -> np.ndarray:
        return self.main.count_subset_lattice(
            itemsets
        ) + self.delta.count_subset_lattice(itemsets)

    def frequent_subsets(
        self,
        itemsets: Sequence[tuple],
        floor: int,
        min_width: int = 2,
    ) -> list[tuple]:
        """Distinct sub-itemsets whose *combined* support reaches ``floor``.

        A sub-itemset's delta contribution is at most ``|D^Q_delta|``, so
        every combined-frequent sub-itemset clears the main floor relaxed
        by that bound; discovery runs on the main kernel at the relaxed
        floor and the caller's exact combined-count filter (the lattice
        extraction's ``min_count``) discards any over-admitted subset.
        Under the coverage guarantee the relaxed floor stays >= 1, so
        itemsets absent from the main index can never qualify — exactly
        the guarantee's contract.
        """
        relaxed = max(int(floor) - self.delta.dq_size, 1)
        return self.main.frequent_subsets(itemsets, relaxed, min_width)

    def count_family(self, family: Iterable[tuple]) -> dict[tuple, int]:
        family = list(family)
        self.main.count_family(family)
        self.delta.count_family(family)
        return {itemset: self.count(itemset) for itemset in family}
