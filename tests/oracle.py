"""Brute-force localized association-rule mining, from the definitions.

The one independent answer every fast path is held to (ROADMAP item 7).
Nothing here is shared with ``src/`` beyond the value types a caller
hands in (:class:`Item`, :class:`Schema`, :class:`LocalizedQuery`): no
tidsets, no kernels, no miner, no R-tree — rows are Python lists,
supports are counted by scanning them, itemsets are enumerated as the
sub-tuples of the rows, and a rule list is every split of every source
whose confidence holds.

Definitions (PAPER.md, DESIGN.md "Semantics notes"):

* the focal subset ``D^Q`` is the rows whose value lies in the query's
  value set on every selected attribute; ``min_count = max(1,
  ceil(minsupp * |D^Q|))``;
* an itemset is *closed* in a row set when no proper superset has the
  same support there;
* the **ARM family** (the from-scratch plan) generates rules from the
  itemsets over ``Aitem`` that are frequent and closed *in* ``D^Q``;
* the **MIP family** (the five index plans) generates rules from the
  itemsets stored offline — closed in the table the index was built
  over, at the primary support floor — that lie within ``Aitem`` and
  reach ``min_count`` in ``D^Q``;
* *expanded* mode generates rules from every locally frequent itemset of
  two items or more within ``Aitem``: for the ARM family all of them,
  for the MIP family those contained in a stored itemset that stays in
  play (its local count reaches ``min_count`` less the delta records in
  focus).  The two coincide whenever the primary floor covers the query;
* a rule ``A => C`` of source ``I = A ∪ C`` has ``support_count =
  |D^Q_I|``, ``support = |D^Q_I| / |D^Q|`` and ``confidence = |D^Q_I| /
  |D^Q_A|``, and is returned when ``confidence >= minconf``; the list is
  ordered by ``(A, C)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil

from repro.core.query import LocalizedQuery
from repro.dataset.schema import Item

Row = tuple[int, ...]
Itemset = tuple[Item, ...]
OracleRule = tuple[Itemset, Itemset, int, float, float]


def support(rows: list[Row], itemset: Itemset) -> int:
    """Rows holding every item of ``itemset``."""
    return sum(all(row[a] == v for a, v in itemset) for row in rows)


def focal_rows(rows: list[Row], query: LocalizedQuery) -> list[Row]:
    return [
        row for row in rows
        if all(row[a] in values for a, values in query.range_selections.items())
    ]


def min_count(minsupp: float, n_rows: int) -> int:
    """``max(1, ceil(minsupp * n_rows))`` on the decimal ``minsupp``
    states, in exact rational arithmetic."""
    return max(1, ceil(Fraction(str(minsupp)) * n_rows))


def occurring_itemsets(rows: list[Row], attributes) -> set[Itemset]:
    """Every non-empty itemset over ``attributes`` some row holds (an
    itemset no row holds has support 0 and is never frequent)."""
    attributes = sorted(attributes)
    found: set[Itemset] = set()
    for row in rows:
        items = [Item(a, row[a]) for a in attributes]
        for size in range(1, len(items) + 1):
            found.update(combinations(items, size))
    return found


def frequent_itemsets(rows: list[Row], floor: int, attributes) -> dict[Itemset, int]:
    counted = {
        itemset: support(rows, itemset)
        for itemset in occurring_itemsets(rows, attributes)
    }
    return {itemset: n for itemset, n in counted.items() if n >= floor}


def closed_itemsets(rows: list[Row], floor: int, attributes) -> dict[Itemset, int]:
    """The frequent itemsets no proper superset over ``attributes`` matches
    in support.  (Support only falls as items are added, so a superset
    with equal support exists iff a one-item extension has it.)"""
    frequent = frequent_itemsets(rows, floor, attributes)
    extensions = {item for itemset in occurring_itemsets(rows, attributes)
                  for item in itemset}
    closed = {}
    for itemset, n in frequent.items():
        fixed = {a for a, _ in itemset}
        if not any(
            support(rows, tuple(sorted((*itemset, item)))) == n
            for item in extensions if item.attribute not in fixed
        ):
            closed[itemset] = n
    return closed


def rules_from(sources, dq: list[Row], minconf: float) -> list[OracleRule]:
    """Every split of every source of two items or more that holds."""
    rules: list[OracleRule] = []
    for source in set(sources):
        count = support(dq, source)
        if len(source) < 2 or count == 0:
            continue
        for size in range(1, len(source)):
            for antecedent in combinations(source, size):
                confidence = count / support(dq, antecedent)
                if confidence >= minconf:
                    consequent = tuple(i for i in source if i not in antecedent)
                    rules.append((antecedent, consequent, count,
                                  count / len(dq), confidence))
    return sorted(rules)


def _aitem(query: LocalizedQuery, n_attributes: int):
    if query.item_attributes is None:
        return range(n_attributes)
    return sorted(query.item_attributes)


def arm_rules(live: list[Row], query: LocalizedQuery, expand: bool) -> list[OracleRule]:
    """The ARM family's answer over the live rows."""
    dq = focal_rows(live, query)
    floor = min_count(query.minsupp, len(dq))
    attributes = _aitem(query, len(live[0]))
    mine = frequent_itemsets if expand else closed_itemsets
    return rules_from(mine(dq, floor, attributes), dq, query.minconf)


def mip_rules(
    stored: list[Row],
    primary_support: float,
    live: list[Row],
    n_delta_in_focus: int,
    query: LocalizedQuery,
    expand: bool,
) -> list[OracleRule]:
    """The MIP family's answer: ``stored`` is the table the index was built
    over, ``live`` the rows alive now (stored ones not deleted, plus the
    appended ones), ``n_delta_in_focus`` how many appended live rows the
    focal subset holds."""
    n_attributes = len(stored[0])
    index = closed_itemsets(
        stored, min_count(primary_support, len(stored)), range(n_attributes)
    )
    dq = focal_rows(live, query)
    floor = min_count(query.minsupp, len(dq))
    allowed = set(_aitem(query, n_attributes))
    if not expand:
        sources = [
            itemset for itemset in index
            if {a for a, _ in itemset} <= allowed
            and support(dq, itemset) >= floor
        ]
        return rules_from(sources, dq, query.minconf)
    in_play = max(floor - n_delta_in_focus, 1)
    sources = set()
    for itemset in index:
        if support(dq, itemset) < in_play:
            continue
        within = [item for item in itemset if item.attribute in allowed]
        for size in range(2, len(within) + 1):
            sources.update(
                sub for sub in combinations(within, size)
                if support(dq, sub) >= floor
            )
    return rules_from(sources, dq, query.minconf)
