"""Relational schema for discretized datasets.

COLARM mines rules over a relational table whose every attribute has been
discretized into a finite, *ordered* list of cells (Section 2.1 of the
paper).  An :class:`Attribute` names those cells; a :class:`Schema` is an
ordered collection of attributes; an :class:`Item` is a single
attribute-value pair such as ``Age=20-30`` (the paper's ``A0``).

Items are plain ``(attribute_index, value_index)`` tuples so they hash and
sort cheaply; the schema renders them back into human-readable form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from repro.errors import SchemaError

__all__ = ["Item", "Attribute", "Schema"]


class Item(NamedTuple):
    """A single attribute-value pair, e.g. ``(Age, 20-30)``.

    Both fields are indices: ``attribute`` into ``Schema.attributes`` and
    ``value`` into that attribute's ordered cell list.
    """

    attribute: int
    value: int


@dataclass(frozen=True)
class Attribute:
    """A discretized attribute: a name plus its ordered cell labels.

    The order of ``values`` is semantic — focal-subset ranges and bounding
    boxes are intervals over value *indices*, so quantitative attributes
    must list their cells in increasing order (``20-30`` before ``30-40``).
    """

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if not self.values:
            raise SchemaError(f"attribute {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise SchemaError(f"attribute {self.name!r} has duplicate values")

    @property
    def cardinality(self) -> int:
        """Number of cells in this attribute's domain."""
        return len(self.values)

    def value_index(self, label: str) -> int:
        """Index of a cell label, raising :class:`SchemaError` if unknown."""
        try:
            return self.values.index(label)
        except ValueError:
            raise SchemaError(
                f"attribute {self.name!r} has no value {label!r}; "
                f"known values: {list(self.values)}"
            ) from None


class Schema:
    """An ordered collection of attributes with name-based lookup."""

    def __init__(self, attributes: tuple[Attribute, ...] | list[Attribute]):
        attributes = tuple(attributes)
        if not attributes:
            raise SchemaError("schema needs at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        self.attributes = attributes
        self._index = {a.name: i for i, a in enumerate(attributes)}
        #: The integer item space: item ``(a, v)`` has id ``item_bases[a] + v``
        #: (attr-major, so id order is ``Item`` sort order); ``n_items`` ids.
        self.item_bases = tuple(
            accumulate((a.cardinality for a in attributes[:-1]), initial=0)
        )
        self.n_items = sum(a.cardinality for a in attributes)
        self._items_by_id: tuple[Item, ...] | None = None

    # -- basic shape ----------------------------------------------------

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def cardinalities(self) -> tuple[int, ...]:
        """Per-attribute domain sizes, in attribute order."""
        return tuple(a.cardinality for a in self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash(self.attributes)

    def __repr__(self) -> str:
        parts = ", ".join(f"{a.name}({a.cardinality})" for a in self.attributes)
        return f"Schema({parts})"

    # -- lookups ---------------------------------------------------------

    def attribute_index(self, name: str) -> int:
        """Index of an attribute by name."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; known: {list(self._index)}"
            ) from None

    def attribute(self, ref: int | str) -> Attribute:
        """Attribute by index or name."""
        if isinstance(ref, str):
            ref = self.attribute_index(ref)
        return self.attributes[ref]

    # -- items -----------------------------------------------------------

    def item(self, attribute: int | str, value: int | str) -> Item:
        """Build an :class:`Item` from attribute/value given as index or label."""
        attr_idx = (
            self.attribute_index(attribute) if isinstance(attribute, str) else attribute
        )
        attr = self.attributes[attr_idx]
        val_idx = attr.value_index(value) if isinstance(value, str) else value
        if not 0 <= val_idx < attr.cardinality:
            raise SchemaError(
                f"value index {val_idx} out of range for attribute "
                f"{attr.name!r} (cardinality {attr.cardinality})"
            )
        return Item(attr_idx, val_idx)

    def all_items(self) -> list[Item]:
        """Every possible item, in (attribute, value) order."""
        return list(self.items_by_id)

    @property
    def items_by_id(self) -> tuple[Item, ...]:
        """The item of every id, ``items_by_id[item_id(item)] is item``
        (built once; the edge where id arrays turn back into items)."""
        if self._items_by_id is None:
            self._items_by_id = tuple(
                Item(ai, vi)
                for ai, attr in enumerate(self.attributes)
                for vi in range(attr.cardinality)
            )
        return self._items_by_id

    def item_id(self, item: Item) -> int:
        """The integer id of an item, ``item_bases[attribute] + value``."""
        return self.item_bases[item[0]] + item[1]

    def itemsets(self, ids, widths) -> list[tuple[Item, ...]]:
        """The itemsets a right-padded matrix of item ids lists, row by
        row: row ``j`` holds ``widths[j]`` ids, then padding ``>=
        n_items``, and the rows come by ascending width — one stream of
        items, cut into tuples one width at a time."""
        flat = ids[ids < self.n_items].tolist()
        # One C-level lookup of every item (a one-key getter would return
        # the bare item, not a 1-tuple).
        stream = iter(
            itemgetter(*flat)(self.items_by_id) if len(flat) > 1
            else [self.items_by_id[i] for i in flat]
        )
        out: list[tuple[Item, ...]] = []
        for n, m in enumerate(np.bincount(widths).tolist()):
            if m:
                out += islice(zip(*[stream] * n), m)
        return out

    def render_item(self, item: Item) -> str:
        """Human-readable form of an item, e.g. ``Age=20-30``."""
        attr = self.attributes[item.attribute]
        return f"{attr.name}={attr.values[item.value]}"

    def render_itemset(self, items) -> str:
        """Human-readable form of an itemset, e.g. ``{Age=20-30, Salary=90K-120K}``."""
        return "{" + ", ".join(self.render_item(i) for i in sorted(items)) + "}"
