"""Rule extraction with the order derived from the ids, kept as a test
reference.

``src/`` orders the kept splits by the positions the sub-itemset table
gives its nodes (the ``order`` matrix of
:meth:`repro.kernels.FocalKernel.count_subset_lattice`): one int64 key
per rule.  :func:`rules_from_subset_lattices` here ignores that matrix and
re-derives the canonical ``(antecedent, consequent)`` order from the
sources' ids alone: every split's antecedent and consequent ids (plus
one; 0 pads a shorter tuple, which therefore sorts first, exactly like
tuple comparison) are compacted into fixed-width packed integer keys and
one ``np.lexsort`` sorts them.  The two must agree byte for byte
(``tests/property/test_rule_order_properties.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dataset.schema import Schema
from repro.errors import DataError
from repro.itemsets.itemset import Itemset
from repro.itemsets.rules import RuleBlock

__all__ = ["rules_from_subset_lattices"]

_MAX_BLOCK_WIDTH = 31


def rules_from_subset_lattices(
    groups: Sequence[tuple],
    universe_count: int,
    minconf: float,
    *,
    schema: Schema,
    min_count: int | None = None,
) -> RuleBlock:
    """The rules of ``groups`` (``(ids, counts, ...)`` per width, as the
    kernel returns them) in canonical order, sorted on packed id keys."""
    if not 0.0 <= minconf <= 1.0:
        raise DataError(f"minconf must be in [0, 1], got {minconf}")
    live = [
        (ids, counts) for ids, counts, *_ in groups
        if len(ids) and ids.shape[1] >= 2
    ]
    if not live:
        return RuleBlock.from_rules(())
    floor = max(min_count if min_count is not None else 1, 1)
    n_pad = max(ids.shape[1] for ids, _ in live)
    if n_pad > _MAX_BLOCK_WIDTH:
        raise DataError(
            f"a rule over {n_pad} items exceeds the "
            f"{_MAX_BLOCK_WIDTH}-item block limit"
        )
    # Slot ``k`` of a source holds its ``k``-th id plus one; slots a
    # narrower source does not have hold ``absent``, which sorts last and
    # masks to 0.
    bits = schema.n_items.bit_length()
    absent = np.int64(1) << np.int64(bits)
    slots = np.empty((sum(len(ids) for ids, _ in live), n_pad), dtype=np.int64)
    slots.fill(absent)

    kept_src: list[np.ndarray] = []
    kept_split: list[np.ndarray] = []
    kept_conf: list[np.ndarray] = []
    source_counts: list[np.ndarray] = []
    base = 0  # index of the group's first source
    for ids, counts in live:
        m, n = ids.shape
        full = (1 << n) - 1
        np.add(ids, 1, out=slots[base:base + m, :n])
        source_counts.append(counts[:, full])
        rows = None
        if np.minimum.reduce(source_counts[-1]) < floor:
            rows = np.flatnonzero(source_counts[-1] >= floor)
            counts = counts[rows]
        conf = counts[:, full, None] / counts[:, 1:full]
        js, splits = (conf >= minconf).nonzero()
        kept_conf.append(conf[js, splits])
        kept_split.append(splits)  # column p: antecedent mask p + 1
        kept_src.append((js if rows is None else rows[js]) + base)
        base += m

    if not any(map(len, kept_src)):  # also: every source under the floor
        return RuleBlock.from_rules(())
    src = np.concatenate(kept_src)
    ant_mask = np.concatenate(kept_split) + 1
    # Split every kept source's slots into antecedent and consequent,
    # each compacted to the left in id order: sources ascend, so an
    # ascending sort with ``absent`` in the other side's slots does both.
    per_word = 63 // bits
    n_words = -(-2 * n_pad // per_word)
    shifts = np.arange(per_word - 1, -1, -1, dtype=np.int64) * bits
    positions = np.arange(n_pad)
    picked = slots[src]
    chosen = (ant_mask[:, None] >> positions & 1).astype(bool)
    sides = np.zeros((len(picked), n_words * per_word), dtype=np.int64)
    for at, side in ((0, np.where(chosen, picked, absent)),
                     (n_pad, np.where(chosen, absent, picked))):
        side.sort(axis=1)
        side &= absent - 1
        sides[:, at:at + n_pad] = side
    keys = np.bitwise_or.reduce(
        sides.reshape(len(picked), n_words, per_word) << shifts, axis=2
    )
    order = np.lexsort(keys.T[::-1])
    src, ant_mask = src[order], ant_mask[order]
    support_count = np.concatenate(source_counts)[src].astype(np.int64)

    used = np.zeros(len(slots), dtype=bool)
    used[src] = True
    sources: list[Itemset] = []
    base = 0
    for ids, _ in live:
        sources += schema.itemsets(ids[used[base:base + len(ids)]])
        base += len(ids)
    return RuleBlock(
        sources,
        (used.cumsum() - 1)[src],
        ant_mask,
        support_count,
        support_count / universe_count
        if universe_count
        else np.zeros(len(src), dtype=np.float64),
        np.concatenate(kept_conf)[order],
    )
