"""Association rules: the columnar rule list and its extraction.

Every rule list is one :class:`RuleBlock` — five columns over the
distinct source itemsets — and :class:`Rule` objects exist only while a
consumer iterates it.  :func:`rules_from_subset_lattices` extracts a
block from the support counts of the sources' sub-itemsets
(:meth:`repro.kernels.FocalKernel.count_subset_lattice`) and orders it
by the positions that table gives each antecedent and consequent: the
same function serves the global case (the whole table as the universe)
and COLARM's localized case (the focal subset), because the universe is
the kernel's.  :func:`split_counts` reads a block's rules back against
another universe.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain, compress
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.dataset.schema import Item, Schema
from repro.errors import DataError
from repro.itemsets.itemset import Itemset, make_itemset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels import SubsetCells

__all__ = [
    "Rule",
    "RuleBlock",
    "rules_from_subset_lattices",
    "split_counts",
]


class Rule(NamedTuple):
    """An association rule ``antecedent => consequent`` with its stats.

    ``support`` and ``confidence`` are relative to the universe the rule was
    mined in — the full dataset for global rules, the focal subset ``D^Q``
    for localized rules (the paper's ``Supp^Q`` and ``Conf^Q``).
    """

    antecedent: Itemset
    consequent: Itemset
    support_count: int
    support: float
    confidence: float

    @property
    def items(self) -> Itemset:
        """The underlying itemset ``antecedent ∪ consequent``."""
        return make_itemset((*self.antecedent, *self.consequent))

    def render(self, schema: Schema) -> str:
        """Human-readable form, e.g. ``{Age=20-30} => {Salary=90K-120K}``."""
        return (
            f"{schema.render_itemset(self.antecedent)} => "
            f"{schema.render_itemset(self.consequent)} "
            f"(supp={self.support:.3f}, conf={self.confidence:.3f})"
        )


# ---------------------------------------------------------------------------
# The columnar rule list
# ---------------------------------------------------------------------------

#: Cached per-width split accessors: for width ``n``, entry ``mask``
#: describes the split whose antecedent is submask ``mask`` of the full
#: itemset — C-speed ``itemgetter``s building the antecedent/consequent
#: tuples (entry 0 is unused: the empty antecedent is no rule).
_SPLIT_GETTERS: dict[int, tuple[list, list]] = {}


def _tuple_getter(positions: list[int]):
    """A callable mapping an itemset tuple to the sub-tuple at positions."""
    if len(positions) == 1:
        # itemgetter(p) would return the bare item; a one-wide slice
        # returns the 1-tuple, still without a Python frame.
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions)


def _split_getters(n: int) -> tuple[list, list]:
    """Antecedent/consequent getters for every proper non-empty split of a
    width-``n`` itemset, indexed by antecedent mask (built once)."""
    cached = _SPLIT_GETTERS.get(n)
    if cached is not None:
        return cached
    ants: list = [None]
    cons: list = [None]
    for mask in range(1, (1 << n) - 1):
        ants.append(_tuple_getter([b for b in range(n) if mask >> b & 1]))
        cons.append(
            _tuple_getter([b for b in range(n) if not mask >> b & 1])
        )
    table = (ants, cons)
    _SPLIT_GETTERS[n] = table
    return table


#: Widest source a block can split: ``ant_mask`` is an int32 column.
_MAX_BLOCK_WIDTH = 31

#: Process-wide intern table of :class:`Item` objects keyed by
#: ``attribute << 32 | value`` — a block rebuilt from bytes looks its items
#: up instead of constructing them (bounded by the distinct items seen).
_ITEM_TABLE: dict[int, Item] = {}

_COLUMNS = (
    ("src", np.int32),
    ("ant_mask", np.int32),
    ("support_count", np.int64),
    ("support", np.float64),
    ("confidence", np.float64),
)

_new_rule = tuple.__new__


def _referenced(sources: Sequence[Itemset], src: np.ndarray):
    """``(sources, src)`` with the sources no rule references dropped."""
    used = np.zeros(len(sources), dtype=bool)
    used[src] = True
    if used.all():
        return sources, src
    return list(compress(sources, used.tolist())), (np.cumsum(used) - 1)[src]


class RuleBlock(Sequence):
    """An immutable rule list held as columns — a ``Sequence[Rule]``.

    ``sources`` are the distinct itemsets the rules split; rule ``i``
    splits ``sources[src[i]]`` into the antecedent at the positions set in
    ``ant_mask[i]`` (bit ``k`` = source position ``k``) and the consequent
    at the others, and carries ``support_count[i]``, ``support[i]``,
    ``confidence[i]``.  The five arrays are read-only and in the order the
    rules are listed in.

    ``len``, iteration, indexing, slicing (to a block) and ``==`` against
    any sequence of :class:`Rule` behave as for a ``list[Rule]`` (a
    boolean mask or an index array also selects a block), but
    :class:`Rule` objects are built on each access and never kept: a
    cached or queued block is six references, not thousands of tuples the
    cyclic collector has to walk.  ``list(block)`` gives a mutable copy.
    """

    __slots__ = ("sources", *(name for name, _ in _COLUMNS))

    def __init__(self, sources: Iterable[Itemset], *columns):
        self.sources = tuple(sources)
        for (name, dtype), values in zip(_COLUMNS, columns, strict=True):
            column = np.asarray(values, dtype=dtype)
            if column.shape != (len(columns[0]),):
                raise DataError(f"rule block column {name} is {column.shape}")
            column.setflags(write=False)
            setattr(self, name, column)

    @classmethod
    def from_rules(cls, rules: Iterable[Rule]) -> "RuleBlock":
        """The block listing ``rules`` in the order given.

        Antecedents and consequents must be sorted itemsets (every
        generator in this module emits them so): a rule is stored as a
        split of its sorted union.
        """
        ids: dict[Itemset, int] = {}
        rows = []
        for rule in rules:
            source = tuple(sorted(rule.antecedent + rule.consequent))
            if len(source) > _MAX_BLOCK_WIDTH:
                raise DataError(
                    f"a rule over {len(source)} items exceeds the "
                    f"{_MAX_BLOCK_WIDTH}-item block limit"
                )
            mask = sum(1 << source.index(item) for item in rule.antecedent)
            rows.append((ids.setdefault(source, len(ids)), mask, *rule[2:]))
        return cls(ids, *(zip(*rows) if rows else [()] * len(_COLUMNS)))

    def share_sources(self, table: dict[Itemset, Itemset]) -> None:
        """Swap every source for the equal tuple ``table`` already holds
        (entering the new ones): blocks kept side by side — a region
        cached at three thresholds, neighbouring regions — then list one
        tuple per itemset, not one each.  The rules do not change."""
        self.sources = tuple(map(table.setdefault, self.sources, self.sources))

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self) -> Iterator[Rule]:
        tables = [(s, *_split_getters(len(s))) for s in self.sources]
        for (source, ants, cons), mask, count_, supp, conf in zip(
            map(tables.__getitem__, self.src.tolist()),
            self.ant_mask.tolist(),
            self.support_count.tolist(),
            self.support.tolist(),
            self.confidence.tolist(),
        ):
            yield _new_rule(
                Rule,
                (ants[mask](source), cons[mask](source), count_, supp, conf),
            )

    def __getitem__(self, index):
        columns = [getattr(self, name)[index] for name, _ in _COLUMNS]
        if isinstance(index, (slice, np.ndarray)):
            return RuleBlock(self.sources, *columns)
        source = self.sources[columns[0]]
        ants, cons = _split_getters(len(source))
        return Rule(
            ants[columns[1]](source),
            cons[columns[1]](source),
            *(column.item() for column in columns[2:]),
        )

    def meets(self, min_count: int, minconf: float) -> np.ndarray:
        """Which rules a query at ``min_count`` / ``minconf`` over this
        block's universe outputs: the two comparisons extraction applies,
        so over one universe a tighter query's answer is exactly the rows
        of a looser one's answer this mask selects."""
        return (self.support_count >= min_count) & (self.confidence >= minconf)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self is other or (
            len(self) == len(other) and all(map(operator.eq, self, other))
        )

    def __repr__(self) -> str:
        return f"RuleBlock({len(self)} rules over {len(self.sources)} itemsets)"

    @property
    def nbytes(self) -> int:
        """Bytes held by the five columns (what a cache entry accounts)."""
        return sum(getattr(self, name).nbytes for name, _ in _COLUMNS)

    def pack(self) -> tuple[bytes, int, int]:
        """``(body, n_rules, n_sources)`` — the block as one buffer.

        ``body`` is the 8-byte columns (``support_count``, ``support``,
        ``confidence``), one int64 id per source item (``attribute << 32
        | value``, sources back to back), then the 4-byte columns
        (``src``, ``ant_mask``) and the source widths; only sources a rule
        references are written, so a slice ships no more than it lists.
        """
        sources, src = _referenced(self.sources, self.src)
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(sources)), dtype=np.int64
        )
        body = b"".join((
            self.support_count.tobytes(),
            self.support.tobytes(),
            self.confidence.tobytes(),
            (pairs[0::2] << 32 | pairs[1::2]).tobytes(),
            src.astype(np.int32, copy=False).tobytes(),
            self.ant_mask.tobytes(),
            np.fromiter(map(len, sources), dtype=np.int32).tobytes(),
        ))
        return body, len(src), len(sources)

    @staticmethod
    def unpack(body, n_rules: int, n_sources: int) -> "RuleBlock":
        """The block :meth:`pack` wrote, its columns views over ``body``
        (any buffer — ``bytes`` off a pipe, a memory-mapped file member).

        Raises :class:`DataError` when ``body`` is not exactly the bytes
        the two counts call for, or names a split no source has — a
        truncated buffer never yields a short rule list.
        """
        buffer = memoryview(body).cast("B")
        wide = 3 * 8 * n_rules
        tail = 4 * (2 * n_rules + n_sources)
        n_items = (len(buffer) - wide - tail) // 8
        if (
            min(n_rules, n_sources, n_items) < 0
            or wide + 8 * n_items + tail != len(buffer)
        ):
            raise DataError(
                f"rule block of {n_rules} rules over {n_sources} itemsets "
                f"cannot be {len(buffer)} bytes"
            )

        def column(dtype, count: int, offset: int) -> np.ndarray:
            return np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)

        narrow = wide + 8 * n_items
        src = column(np.int32, n_rules, narrow)
        ant_mask = column(np.int32, n_rules, narrow + 4 * n_rules)
        width_of = column(np.int32, n_sources, narrow + 8 * n_rules)
        widths = width_of.tolist()
        if (
            sum(widths) != n_items
            or not 2 <= min(widths, default=2) <= max(widths, default=2)
            <= _MAX_BLOCK_WIDTH
            or n_rules and (
                not 0 <= src.min() <= src.max() < n_sources
                or ant_mask.min() < 1
                or (ant_mask >= ((1 << width_of) - 1)[src]).any()
            )
        ):
            raise DataError("rule block splits a source it does not hold")
        ids = column(np.int64, n_items, wide).tolist()
        table = _ITEM_TABLE
        for i in set(ids).difference(table):
            table[i] = Item(i >> 32, i & 0xFFFFFFFF)
        items = tuple(map(table.__getitem__, ids))
        ends = list(accumulate(widths))
        return RuleBlock(
            map(items.__getitem__, map(slice, [0] + ends, ends)),
            src,
            ant_mask,
            column(np.int64, n_rules, 0),
            column(np.float64, n_rules, 8 * n_rules),
            column(np.float64, n_rules, 16 * n_rules),
        )

    def __reduce__(self):
        return RuleBlock.unpack, self.pack()


# ---------------------------------------------------------------------------
# Extraction over the flat cell layout
# ---------------------------------------------------------------------------


#: Cap on the cells one extraction chunk divides: a chunk is a run of
#: whole sources, so its float64 quotients and index temporaries stay a
#: few tens of MiB however many sources a request has.
_EXTRACT_CHUNK_CELLS = 4 << 20


def rules_from_subset_lattices(
    cells: "SubsetCells",
    universe_count: int,
    minconf: float,
    *,
    schema: Schema,
    min_count: int | None = None,
) -> RuleBlock:
    """Globally sorted rule extraction over one flat cell layout.

    ``cells`` is what one
    :meth:`~repro.kernels.FocalKernel.count_subset_lattice` call returns
    (a :class:`~repro.kernels.SubsetCells`): *distinct* source itemsets
    by ascending width, each followed by its ``2**n`` cells — the support
    of every sub-itemset and its position in id-tuple order; ``schema``
    is the one the ids belong to.  Every proper non-empty split of every
    source of two items or more is checked in one pass over the cells:
    the cell ``c`` of a source spanning cells ``s..e`` is the antecedent,
    ``s + e - c`` the consequent, and the split is kept when
    ``counts[e] / counts[c] >= minconf`` and ``counts[e]`` reaches
    ``min_count`` (floored at 1).  Because ``antecedent ∪ consequent``
    determines the source, the kept splits are distinct rules.

    The canonical ``(antecedent, consequent)`` output order is read off
    the table: antecedent and consequent are both nodes of it, so a kept
    split's key is the one int64 ``order[c] << 32 | order[s + e - c]``
    and one ``argsort`` orders every rule.  The sorted columns *are* the
    result — a :class:`RuleBlock` whose ``Item`` tuples are built for the
    sources that kept a split and for nothing else; no per-rule Python
    object is built here.
    """
    if not 0.0 <= minconf <= 1.0:
        raise DataError(f"minconf must be in [0, 1], got {minconf}")
    widths, offsets = cells.widths, cells.offsets
    first = int(np.searchsorted(widths, 2))
    if first == len(widths):
        return _EMPTY_BLOCK
    if widths[-1] > _MAX_BLOCK_WIDTH:
        raise DataError(
            f"a rule over {widths[-1]} items exceeds the "
            f"{_MAX_BLOCK_WIDTH}-item block limit"
        )
    floor = max(min_count if min_count is not None else 1, 1)
    kept = [
        _kept_splits(cells, a, b, minconf, floor)
        for a, b in _chunks(offsets, first)
    ]
    src, mask, key, support_count, conf = (
        part[0] if len(kept) == 1 else np.concatenate(part)
        for part in zip(*kept)
    )
    if not len(src):  # also: every source under the floor
        return _EMPTY_BLOCK
    ranked = np.argsort(key)
    src = src.take(ranked)
    support_count = support_count.take(ranked).astype(np.int64)
    used = np.zeros(len(widths), dtype=bool)
    used[src] = True
    return RuleBlock(
        schema.itemsets(cells.ids[used], widths[used]),
        (used.cumsum() - 1).take(src),
        mask.take(ranked),
        support_count,
        # True division: bit-identical to Python's ``count / universe``
        # for counts below 2**53.
        support_count / universe_count
        if universe_count
        else np.zeros(len(src), dtype=np.float64),
        conf.take(ranked),
    )


def _chunks(offsets: np.ndarray, first: int):
    """Runs ``(a, b)`` of whole sources from ``first`` on, each holding at
    most :data:`_EXTRACT_CHUNK_CELLS` cells unless one source alone does."""
    end = len(offsets) - 1
    if offsets[end] - offsets[first] <= _EXTRACT_CHUNK_CELLS:
        yield first, end
        return
    a = first
    while a < end:
        b = int(np.searchsorted(
            offsets, int(offsets[a]) + _EXTRACT_CHUNK_CELLS, side="right"
        )) - 1
        b = max(b, a + 1)
        yield a, b
        a = b


def _kept_splits(cells, a: int, b: int, minconf: float, floor: int):
    """The splits of sources ``a..b - 1`` that make rules, unsorted:
    ``(src, ant_mask, key, support_count, confidence)``."""
    starts = cells.offsets[a:b + 1]
    lo, hi = int(starts[0]), int(starts[-1])
    sizes = np.diff(starts)
    starts = starts[:-1] - lo  # each source's empty-itemset cell ...
    ends = starts + sizes
    ends -= 1  # ... and full-itemset cell, from ``lo``
    span = cells.counts[lo:hi]
    full = span.take(ends)
    dead = np.minimum.reduce(full) < floor
    support = np.repeat(full, sizes)
    if dead:
        # A sub-itemset is supported wherever its source is: a source at
        # the floor (>= 1) divides by no zero, and one below it goes.
        span = np.maximum(span, 1)
    # True division: bit-identical to Python's ``count / count`` for
    # counts below 2**53.
    conf = support / span
    keep = conf >= minconf
    if dead:
        keep &= support >= floor
    keep[starts] = False  # the empty antecedent ...
    keep[ends] = False  # ... and the empty consequent are no splits
    at = np.flatnonzero(keep)
    src = np.searchsorted(ends, at)
    mask = at - starts.take(src)
    order = cells.order[lo:hi]
    key = np.left_shift(order.take(at), 32, dtype=np.int64)
    key |= order.take(ends.take(src) - mask)
    src += a
    return src, mask, key, support.take(at), conf.take(at)


def split_counts(
    block: RuleBlock, kernel, schema: Schema
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per rule of ``block``, how many records of ``kernel``'s universe
    hold its itemset, its antecedent and its consequent — the rules of
    one universe read against another (the local rules in the whole
    table, the global ones in a focal subset), exact for any rule.

    ``kernel`` is a :class:`repro.kernels.FocalKernel` over ``schema``'s
    item ids; the three counts are cells of the rule's source in
    :meth:`~repro.kernels.FocalKernel.count_subset_lattice`.
    """
    widths = np.fromiter(map(len, block.sources), np.intp, len(block.sources))
    ids = np.full((len(widths), widths.max(initial=0)), schema.n_items)
    for row, source in zip(ids, block.sources):
        row[:len(source)] = [schema.item_id(item) for item in source]
    cells = kernel.count_subset_lattice(ids)
    # The cells list the sources by ascending width, in block order within
    # a width: source ``i`` is the ``where[i]``-th.
    where = np.empty(len(widths), dtype=np.intp)
    where[np.argsort(widths, kind="stable")] = np.arange(len(widths))
    at = where.take(block.src)
    first = cells.offsets.take(at)
    full = cells.offsets.take(at + 1) - 1
    return tuple(
        cells.counts.take(cell).astype(np.int64)
        for cell in (full, first + block.ant_mask, full - block.ant_mask)
    )


_EMPTY_BLOCK = RuleBlock.from_rules(())
