"""Itemset values and invariants.

An itemset is a sorted tuple of :class:`~repro.dataset.schema.Item` pairs
with **at most one value per attribute** — the relational-model constraint
of Section 2.1 (a record cannot take two values of one attribute, so any
itemset violating this has empty support and is never generated).
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from repro.dataset.schema import Item
from repro.errors import DataError

__all__ = [
    "Itemset",
    "min_count_for",
    "make_itemset",
    "union_itemsets",
    "is_subset_itemset",
    "attributes_of",
    "proper_subsets",
]

#: An itemset is a sorted tuple of items; the empty tuple is the empty itemset.
Itemset = tuple[Item, ...]


def min_count_for(minsupp: float, n_records: int) -> int:
    """Absolute support count threshold for a relative ``minsupp``.

    An itemset is frequent iff its count is at least
    ``ceil(minsupp * n_records)`` (and at least 1 — empty support never
    counts as frequent).  The product is taken in exact arithmetic on the
    decimal the query states (``str(minsupp)``), not on its binary float:
    ``0.07 * 100`` is 7.000000000000001 in floating point, but a stated
    7 % of 100 records is 7.
    """
    numerator, denominator = _stated_ratio(minsupp)
    return max(-(-numerator * n_records // denominator), 1)


@lru_cache(maxsize=1024)
def _stated_ratio(minsupp: float) -> tuple[int, int]:
    """``minsupp``'s stated decimal as a reduced fraction, validated;
    memoized, as a workload states few distinct thresholds."""
    if not 0.0 <= minsupp <= 1.0:
        raise DataError(f"minsupp must be in [0, 1], got {minsupp}")
    ratio = Fraction(str(minsupp))
    return ratio.numerator, ratio.denominator


def make_itemset(items: Iterable[Item]) -> Itemset:
    """Canonicalize items into a sorted, duplicate-free itemset.

    Raises :class:`DataError` if two items name the same attribute with
    different values (impossible in the relational model).
    """
    unique = sorted(set(items))
    seen_attrs: set[int] = set()
    for item in unique:
        if item.attribute in seen_attrs:
            raise DataError(
                f"itemset assigns attribute {item.attribute} more than once"
            )
        seen_attrs.add(item.attribute)
    return tuple(unique)


def union_itemsets(a: Itemset, b: Itemset) -> Itemset:
    """Union of two itemsets (validating the one-value-per-attribute rule)."""
    return make_itemset((*a, *b))


def is_subset_itemset(inner: Itemset, outer: Itemset) -> bool:
    """Whether every item of ``inner`` appears in ``outer``."""
    return set(inner) <= set(outer)


def attributes_of(itemset: Itemset) -> frozenset[int]:
    """The attribute indices an itemset fixes."""
    return frozenset(item.attribute for item in itemset)


def proper_subsets(itemset: Itemset) -> list[Itemset]:
    """All non-empty proper subsets, in length-then-lexicographic order.

    Exponential in ``len(itemset)``; callers cap itemset length (rule
    generation never needs sets longer than the stored closed itemsets).
    """
    n = len(itemset)
    subsets: list[Itemset] = []
    for mask in range(1, (1 << n) - 1):
        subsets.append(tuple(itemset[i] for i in range(n) if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), s))
    return subsets
