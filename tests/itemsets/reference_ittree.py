"""The closed IT-tree of the paper's §3.3, kept as a test reference.

The MIP-index's second layer in the paper.  It stores the closed frequent
itemsets produced offline by CHARM, organized by level — Lemma 4.3: the
level of an itemset equals its number of singleton items ``C_I`` —
together with an inverted item index that answers the two questions the
online operators ask:

* ``closure_of(X)`` — the smallest stored closed superset of an arbitrary
  itemset ``X``.  Because ``t(X) = t(closure(X))``, this gives the *exact*
  tidset (hence global and local support) of any itemset whose global
  support reaches the primary threshold;
* ``local_support_count(X, dq)`` — ``|t(X) ∩ D^Q|``, the record-level check
  at the heart of ELIMINATE and VERIFY.

``src/`` answers the second question from the packed item rows
(:meth:`repro.kernels.FocalKernel.count_subset_lattice`) and builds no
tree; ``tests/itemsets/test_ittree.py`` holds that count to this one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro import tidset as ts
from repro.dataset.schema import Item
from repro.errors import IndexError_
from repro.itemsets.itemset import Itemset, make_itemset
from tests.itemsets.reference_charm import ClosedItemset

__all__ = ["ClosedITTree"]


class ClosedITTree:
    """Level-indexed store of closed frequent itemsets with closure lookup."""

    def __init__(self, closed_itemsets: Sequence[ClosedItemset]):
        self._all = tuple(closed_itemsets)
        self._levels: dict[int, list[int]] = {}
        self._by_item: dict[Item, set[int]] = {}
        self._by_items_key: dict[Itemset, int] = {}
        for idx, cfi in enumerate(self._all):
            if cfi.items in self._by_items_key:
                raise IndexError_(f"duplicate closed itemset {cfi.items}")
            self._by_items_key[cfi.items] = idx
            self._levels.setdefault(cfi.length, []).append(idx)
            for item in cfi.items:
                self._by_item.setdefault(item, set()).add(idx)

    # -- shape -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[ClosedItemset]:
        return iter(self._all)

    @property
    def height(self) -> int:
        """Deepest level (longest stored itemset); 0 when empty."""
        return max(self._levels, default=0)

    def levels(self) -> dict[int, int]:
        """Number of stored itemsets per level (itemset length)."""
        return {level: len(ids) for level, ids in sorted(self._levels.items())}

    def at_level(self, level: int) -> list[ClosedItemset]:
        """All stored itemsets of the given length."""
        return [self._all[i] for i in self._levels.get(level, [])]

    def get(self, items: Itemset) -> ClosedItemset | None:
        """The stored closed itemset exactly equal to ``items``, if any."""
        idx = self._by_items_key.get(make_itemset(items))
        return self._all[idx] if idx is not None else None

    # -- closure lookups ---------------------------------------------------

    def closure_of(self, items: Iterable[Item]) -> ClosedItemset | None:
        """Smallest stored closed superset of ``items`` (its closure).

        Among stored supersets of ``X`` the closure is the one with the
        largest tidset, because every closed superset's tidset is contained
        in ``t(X)`` and the closure achieves ``t(X)`` itself.  Returns
        ``None`` iff the global support of ``X`` is below the primary
        threshold the index was built with (the POQM coverage floor,
        footnote 2 of the paper).
        """
        items = list(items)
        if not items:
            return None
        candidate_ids = self._by_item.get(items[0])
        if not candidate_ids:
            return None
        candidate_ids = set(candidate_ids)
        for item in items[1:]:
            candidate_ids &= self._by_item.get(item, set())
            if not candidate_ids:
                return None
        best = max(candidate_ids, key=lambda i: self._all[i].support_count)
        return self._all[best]

    def support_count_of(self, items: Iterable[Item]) -> int | None:
        """Exact global support count of ``X``, or ``None`` below the floor."""
        closure = self.closure_of(items)
        return closure.support_count if closure is not None else None

    def local_support_count(self, items: Iterable[Item], dq: int) -> int | None:
        """``|t(X) ∩ dq|`` — exact local support count w.r.t. a focal tidset.

        ``None`` when the itemset's global support is below the primary
        threshold (its tidset is not recoverable from the index).
        """
        closure = self.closure_of(items)
        if closure is None:
            return None
        return ts.count(closure.tidset & dq)
