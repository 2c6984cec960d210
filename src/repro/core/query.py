"""The localized mining query and focal-subset geometry.

A :class:`LocalizedQuery` carries the four online parameters of Section 2.2:
the range selections (``Arange``, defining the focal subset ``D^Q``), the
optional item attributes (``Aitem``), and the ``minsupp``/``minconf``
thresholds.

Range selections are per-attribute *value sets*; :class:`FocalRange`
holds them as bitmasks.  SEARCH classifies every MIP box against them
exactly as contained / partially overlapped / disjoint (Section 3.4's
three mutually exclusive groups) through the index statistics' per-value
MIP bitmaps (:meth:`repro.core.stats.IndexStatistics.region_bits`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.dataset.schema import Schema
from repro.errors import QueryError

__all__ = [
    "FocalRange",
    "LocalizedQuery",
    "canonical_focal_key",
]


def canonical_focal_key(
    range_selections: Mapping[int, frozenset[int]],
    cardinalities: Sequence[int],
) -> tuple:
    """Canonical key of the focal subset a selection set names.

    A selection spanning an attribute's whole domain selects nothing, so
    it is dropped: two queries selecting the same records — one spelling
    the full domain out, one omitting the attribute — map to the same
    key.  This is the grouping shared by :mod:`repro.core.multiquery`
    (one plan execution per group of a batch), :mod:`repro.cache` (entry
    keys), and :mod:`repro.serving` (in-flight request coalescing);
    keeping it in one place keeps the three layers agreeing on what "the
    same focal subset" means.
    """
    return tuple(sorted(
        (ai, tuple(sorted(vs)))
        for ai, vs in range_selections.items()
        if len(vs) < cardinalities[ai]
    ))


@dataclass(frozen=True)
class FocalRange:
    """The focal region as per-dimension admitted-value bitmasks."""

    cardinalities: tuple[int, ...]
    value_masks: tuple[int, ...]  # bit v set <=> value v admitted, per dim

    @classmethod
    def from_selections(
        cls,
        selections: Mapping[int, frozenset[int]],
        cardinalities: Sequence[int],
    ) -> "FocalRange":
        cardinalities = tuple(cardinalities)
        masks = []
        for dim, card in enumerate(cardinalities):
            if dim in selections:
                values = selections[dim]
                if not values:
                    raise QueryError(f"empty selection for attribute {dim}")
                mask = 0
                for v in values:
                    if not 0 <= v < card:
                        raise QueryError(
                            f"value index {v} out of range for attribute {dim} "
                            f"(cardinality {card})"
                        )
                    mask |= 1 << v
            else:
                mask = (1 << card) - 1
            masks.append(mask)
        return cls(cardinalities, tuple(masks))

    def hull_extents(self) -> tuple[int, ...]:
        """Cell extents of the hull per dimension (the cost model's D^Q_i)."""
        return tuple(
            mask.bit_length() - (mask & -mask).bit_length() + 1
            for mask in self.value_masks
        )

    def selectivity(self) -> float:
        """Fraction of grid cells admitted (product over dimensions)."""
        fraction = 1.0
        for card, mask in zip(self.cardinalities, self.value_masks):
            fraction *= mask.bit_count() / card
        return fraction


@dataclass(frozen=True)
class LocalizedQuery:
    """An online localized rule mining request (the paper's query ``Q``).

    ``range_selections`` maps attribute index to the admitted value indices
    (attributes absent admit their full domain); ``item_attributes`` is the
    optional ``Aitem`` restriction (``None`` = all attributes);
    ``minsupp``/``minconf`` are relative thresholds over the focal subset.
    """

    range_selections: Mapping[int, frozenset[int]]
    minsupp: float
    minconf: float
    item_attributes: frozenset[int] | None = None
    _frozen_selections: tuple[tuple[int, frozenset[int]], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.minsupp <= 1.0:
            raise QueryError(f"minsupp must be in (0, 1], got {self.minsupp}")
        if not 0.0 <= self.minconf <= 1.0:
            raise QueryError(f"minconf must be in [0, 1], got {self.minconf}")
        normalized = tuple(
            sorted((int(k), frozenset(v)) for k, v in dict(self.range_selections).items())
        )
        object.__setattr__(self, "_frozen_selections", normalized)
        object.__setattr__(self, "range_selections", dict(normalized))

    def __hash__(self) -> int:
        return hash(
            (self._frozen_selections, self.minsupp, self.minconf, self.item_attributes)
        )

    @classmethod
    def from_labels(
        cls,
        schema: Schema,
        ranges: Mapping[str, Sequence[str]],
        minsupp: float,
        minconf: float,
        item_attributes: Sequence[str] | None = None,
    ) -> "LocalizedQuery":
        """Build a query from attribute/value *labels* (the user-facing form).

        ``ranges={"Location": ["Seattle"], "Gender": ["F"]}`` selects the
        paper's "female employees in Seattle" focal subset.
        """
        selections: dict[int, frozenset[int]] = {}
        for name, labels in ranges.items():
            ai = schema.attribute_index(name)
            attr = schema.attributes[ai]
            if not labels:
                raise QueryError(f"empty value list for range attribute {name!r}")
            selections[ai] = frozenset(attr.value_index(lbl) for lbl in labels)
        items = None
        if item_attributes is not None:
            items = frozenset(schema.attribute_index(n) for n in item_attributes)
            if not items:
                raise QueryError("item_attributes must not be empty when given")
        return cls(
            range_selections=selections,
            minsupp=minsupp,
            minconf=minconf,
            item_attributes=items,
        )

    def focal_range(self, cardinalities: Sequence[int]) -> FocalRange:
        return FocalRange.from_selections(self.range_selections, cardinalities)

    def validate_against(self, schema: Schema) -> None:
        """Check all referenced attributes/values exist in the schema."""
        for ai, values in self.range_selections.items():
            if not 0 <= ai < schema.n_attributes:
                raise QueryError(f"range attribute index {ai} out of range")
            card = schema.attributes[ai].cardinality
            for v in values:
                if not 0 <= v < card:
                    raise QueryError(
                        f"value {v} out of range for attribute "
                        f"{schema.attributes[ai].name!r}"
                    )
        if self.item_attributes is not None:
            for ai in self.item_attributes:
                if not 0 <= ai < schema.n_attributes:
                    raise QueryError(f"item attribute index {ai} out of range")

    def describe(self, schema: Schema) -> str:
        """Human-readable one-liner for logs and plan explanations."""
        parts = []
        for ai, values in sorted(self.range_selections.items()):
            attr = schema.attributes[ai]
            labels = ", ".join(attr.values[v] for v in sorted(values))
            parts.append(f"{attr.name} in ({labels})")
        where = " AND ".join(parts) if parts else "<full dataset>"
        items = (
            "all attributes"
            if self.item_attributes is None
            else ", ".join(
                schema.attributes[ai].name for ai in sorted(self.item_attributes)
            )
        )
        return (
            f"RANGE {where} | ITEM {items} | "
            f"minsupp={self.minsupp:.2f} minconf={self.minconf:.2f}"
        )
