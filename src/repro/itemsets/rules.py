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
from typing import NamedTuple

import numpy as np

from repro.dataset.schema import Item, Schema
from repro.errors import DataError
from repro.itemsets.itemset import Itemset, make_itemset

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
    any sequence of :class:`Rule` behave as for a ``list[Rule]``, but
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
        if isinstance(index, slice):
            return RuleBlock(self.sources, *columns)
        source = self.sources[columns[0]]
        ants, cons = _split_getters(len(source))
        return Rule(
            ants[columns[1]](source),
            cons[columns[1]](source),
            *(column.item() for column in columns[2:]),
        )

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
# Mask-indexed extraction over whole subset lattices
# ---------------------------------------------------------------------------


def rules_from_subset_lattices(
    groups: "Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]",
    universe_count: int,
    minconf: float,
    *,
    schema: Schema,
    min_count: int | None = None,
) -> RuleBlock:
    """Globally sorted rule extraction across several subset-lattice groups.

    ``groups`` are the ``(ids, counts, order)`` width groups of one
    :meth:`~repro.kernels.FocalKernel.count_subset_lattice` call, or any
    selection of their rows: each same-width batch of *distinct* source
    itemsets — an ``(m, n)`` matrix of ascending item ids — with its
    ``(m, 2**n)`` matrices of sub-itemset supports (``counts[j, mask]`` is
    the support of the sub-itemset of source ``j`` selected by ``mask``'s
    bits) and of the sub-itemsets' positions in id-tuple order (sources
    must be distinct across *all* groups); ``schema`` is the one the ids
    belong to.  Every proper non-empty antecedent/consequent split of
    every source is checked in one vectorized confidence pass per group;
    ``min_count`` (floored at 1) filters source supports.  Because
    ``antecedent ∪ consequent`` determines the source, the kept splits
    are distinct rules.

    The canonical ``(antecedent, consequent)`` output order is read off
    the table: antecedent and consequent are both nodes of it, so a kept
    split's key is the one int64 ``order[antecedent] << 32 |
    order[consequent]`` and one ``argsort`` orders every rule.  The
    sorted columns *are* the result — a :class:`RuleBlock` whose ``Item``
    tuples are built for the sources that kept a split and for nothing
    else; no per-rule Python object is built here.
    """
    if not 0.0 <= minconf <= 1.0:
        raise DataError(f"minconf must be in [0, 1], got {minconf}")
    live = [
        group for group in groups
        if len(group[0]) and group[0].shape[1] >= 2
    ]
    if not live:
        return _EMPTY_BLOCK
    floor = max(min_count if min_count is not None else 1, 1)
    n_pad = max(ids.shape[1] for ids, _, _ in live)
    if n_pad > _MAX_BLOCK_WIDTH:
        raise DataError(
            f"a rule over {n_pad} items exceeds the "
            f"{_MAX_BLOCK_WIDTH}-item block limit"
        )

    kept_src: list[np.ndarray] = []
    kept_mask: list[np.ndarray] = []
    kept_key: list[np.ndarray] = []
    kept_conf: list[np.ndarray] = []
    source_counts: list[np.ndarray] = []
    base = 0  # index of the group's first source
    for ids, counts, order in live:
        m, n = ids.shape
        full = (1 << n) - 1
        source_counts.append(counts[:, full])
        # A sub-itemset is supported wherever its source is: a source at
        # the floor (>= 1) divides by no zero, and one below it goes.
        rows = None
        if np.minimum.reduce(source_counts[-1]) < floor:
            rows = np.flatnonzero(source_counts[-1] >= floor)
            counts, order = counts[rows], order[rows]
        # Chunk the (m_c, 2**n - 2) confidence slabs to a fixed footprint.
        chunk = max(1, (4 << 20) // (full - 1))
        for lo in range(0, len(counts), chunk):
            block = counts[lo:lo + chunk]
            # True division: bit-identical to Python's ``count / count``
            # for counts below 2**53.
            conf = block[:, full, None] / block[:, 1:full]
            js, masks = (conf >= minconf).nonzero()
            kept_conf.append(conf[js, masks])
            masks += 1  # column p: antecedent mask p + 1
            kept_mask.append(masks)
            ranks = order[lo:lo + chunk]
            keys = ranks[js, masks].astype(np.int64)
            keys <<= 32
            keys |= ranks[js, full ^ masks]
            kept_key.append(keys)
            js += lo
            kept_src.append((js if rows is None else rows[js]) + base)
        base += m

    if not any(map(len, kept_src)):  # also: every source under the floor
        return _EMPTY_BLOCK
    ranked = np.argsort(np.concatenate(kept_key))
    src = np.concatenate(kept_src)[ranked]
    support_count = np.concatenate(source_counts).astype(np.int64)[src]

    used = np.zeros(base, dtype=bool)
    used[src] = True
    sources: list[Itemset] = []
    base = 0
    for ids, _, _ in live:
        sources += schema.itemsets(ids[used[base:base + len(ids)]])
        base += len(ids)
    return RuleBlock(
        sources,
        (used.cumsum() - 1)[src],
        np.concatenate(kept_mask)[ranked],
        support_count,
        # True division: bit-identical to Python's ``count / universe``
        # for counts below 2**53.
        support_count / universe_count
        if universe_count
        else np.zeros(len(src), dtype=np.float64),
        np.concatenate(kept_conf)[ranked],
    )


def split_counts(
    block: RuleBlock, kernel, schema: Schema
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per rule of ``block``, how many records of ``kernel``'s universe
    hold its itemset, its antecedent and its consequent — the rules of
    one universe read against another (the local rules in the whole
    table, the global ones in a focal subset), exact for any rule.

    ``kernel`` is a :class:`repro.kernels.FocalKernel` over ``schema``'s
    item ids; the three counts are cells of the rule's source row of
    :meth:`~repro.kernels.FocalKernel.count_subset_lattice`.
    """
    widths = np.fromiter(map(len, block.sources), np.intp, len(block.sources))
    ids = np.full((len(widths), widths.max(initial=0)), schema.n_items)
    for row, source in zip(ids, block.sources):
        row[:len(source)] = [schema.item_id(item) for item in source]
    both, antecedent, consequent = np.zeros((3, len(block)), dtype=np.int64)
    for _, counts, _ in kernel.count_subset_lattice(ids):
        # A group lists the sources of one width, in ``sources`` order.
        full = counts.shape[1] - 1
        of_width = widths == full.bit_length()
        rules = np.flatnonzero(of_width[block.src])
        rows = (np.cumsum(of_width) - 1)[block.src[rules]]
        masks = block.ant_mask[rules]
        both[rules] = counts[rows, full]
        antecedent[rules] = counts[rows, masks]
        consequent[rules] = counts[rows, full ^ masks]
    return both, antecedent, consequent


_EMPTY_BLOCK = RuleBlock.from_rules(())
