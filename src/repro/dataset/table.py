"""The relational table COLARM mines over.

A :class:`RelationalTable` couples a :class:`~repro.dataset.schema.Schema`
with an ``m x n`` matrix of cell indices (record ``r``'s value for attribute
``i`` is ``data[r, i]``).  It owns the per-item tidsets that every mining
algorithm and every online operator in this library is built on.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro import kernels, tidset as ts
from repro.dataset.schema import Attribute, Item, Schema
from repro.errors import DataError, SchemaError

__all__ = ["RelationalTable", "from_labeled_records"]


class RelationalTable:
    """An immutable discretized relational dataset.

    Parameters
    ----------
    schema:
        Attribute definitions; column ``i`` of ``data`` is interpreted
        against ``schema.attributes[i]``.
    data:
        Integer matrix of shape ``(n_records, n_attributes)`` whose entries
        are value indices within each attribute's domain.
    """

    def __init__(self, schema: Schema, data: np.ndarray):
        data = np.asarray(data)
        if data.ndim != 2:
            raise DataError(f"data must be 2-D, got shape {data.shape}")
        if data.shape[1] != schema.n_attributes:
            raise DataError(
                f"data has {data.shape[1]} columns but schema has "
                f"{schema.n_attributes} attributes"
            )
        if not np.issubdtype(data.dtype, np.integer):
            raise DataError(f"data must be integer cell indices, got {data.dtype}")
        cards = np.asarray(schema.cardinalities())
        if data.size:
            if data.min() < 0 or np.any(data.max(axis=0) >= cards):
                raise DataError("cell index outside its attribute's domain")
        self.schema = schema
        self.data = np.ascontiguousarray(data, dtype=np.int32)
        self.data.setflags(write=False)
        self._item_tidsets: dict[Item, int] | None = None
        self._item_matrix: tuple[np.ndarray, dict[Item, int]] | None = None
        self._item_ids: np.ndarray | None = None

    # -- shape -----------------------------------------------------------

    @property
    def n_records(self) -> int:
        return self.data.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.n_records

    def __repr__(self) -> str:
        return (
            f"RelationalTable({self.n_records} records x "
            f"{self.n_attributes} attributes)"
        )

    # -- records and items -------------------------------------------------

    def record(self, tid: int) -> tuple[Item, ...]:
        """Record ``tid`` as a tuple of items, one per attribute."""
        row = self.data[tid]
        return tuple(Item(ai, int(v)) for ai, v in enumerate(row))

    def record_labels(self, tid: int) -> dict[str, str]:
        """Record ``tid`` as an ``{attribute_name: value_label}`` mapping."""
        row = self.data[tid]
        return {
            attr.name: attr.values[int(v)]
            for attr, v in zip(self.schema.attributes, row)
        }

    def item_tidsets(self) -> dict[Item, int]:
        """Tidset for every item that occurs in the data (computed once).

        Items that occur in no record are omitted; their tidset is empty.
        Each tidset is read off its :meth:`item_matrix` row; build, fold,
        load and requests read the matrix itself and never build this.
        """
        if self._item_tidsets is None:
            matrix, rows = self.item_matrix()
            self._item_tidsets = {
                item: kernels.unpack(matrix[row]) for item, row in rows.items()
            }
        return self._item_tidsets

    def item_matrix(self) -> tuple[np.ndarray, dict[Item, int]]:
        """Packed ``(n_items, words)`` item-tidset matrix plus row lookup.

        The source of every item tidset in the library: row ``rows[item]``
        has bit ``t`` set when record ``t`` holds ``item``.  Only items
        that occur get a row, ordered by their natural sort (ascending
        item id), matching the column order of
        :func:`repro.core.stats.gather_statistics`.  Built once: one
        ``packbits`` of a column's membership bits per schema item, straight
        into a zeroed row, keeping the rows of present items.
        """
        if self._item_matrix is None:
            schema = self.schema
            full = np.zeros(
                (schema.n_items, self.tidset_words), dtype=np.dtype("<u8")
            )
            row_bytes = full.view(np.uint8)
            for a, base in enumerate(schema.item_bases):
                column = np.ascontiguousarray(self.data[:, a])
                for v in range(schema.attributes[a].cardinality):
                    bits = np.packbits(column == v, bitorder="little")
                    row_bytes[base + v, : len(bits)] = bits
            ids = np.flatnonzero(full.any(axis=1))
            matrix = full if len(ids) == len(full) else full[ids]
            matrix.setflags(write=False)
            ids.setflags(write=False)
            self._item_ids = ids
            items = schema.items_by_id
            self._item_matrix = (
                matrix, {items[i]: row for row, i in enumerate(ids.tolist())}
            )
        return self._item_matrix

    def item_ids(self) -> np.ndarray:
        """Schema item id (:meth:`Schema.item_id`) of each
        :meth:`item_matrix` row, ascending — the one array that maps the
        matrix's present-items-only rows into the integer item space."""
        self.item_matrix()
        return self._item_ids

    @property
    def tidset_words(self) -> int:
        """64-bit words per packed tidset row for this table's universe."""
        return kernels.n_words(self.n_records)

    def item_tidset(self, item: Item) -> int:
        """Tidset of one item (empty if the item never occurs)."""
        return self.item_tidsets().get(item, ts.EMPTY)

    def itemset_tidset(self, items: Iterable[Item]) -> int:
        """Tidset of an itemset: intersection of its items' tidsets.

        The empty itemset is supported by every record.  The intersection
        runs over packed rows of :meth:`item_matrix` in one vectorized
        reduce; any item absent from the data empties the result.
        """
        matrix, rows = self.item_matrix()
        indices: list[int] = []
        for item in items:
            row = rows.get(item)
            if row is None:
                return ts.EMPTY
            indices.append(row)
        if not indices:
            return ts.full(self.n_records)
        return kernels.unpack(kernels.and_reduce(matrix[indices]))

    def support_count(self, items: Iterable[Item]) -> int:
        """Number of records containing every item of ``items``."""
        return ts.count(self.itemset_tidset(items))

    def support(self, items: Iterable[Item]) -> float:
        """Relative support of an itemset (0.0 on an empty table)."""
        if self.n_records == 0:
            return 0.0
        return self.support_count(items) / self.n_records

    # -- selections ---------------------------------------------------------

    def tids_matching(self, selections: Mapping[int, frozenset[int] | set[int]]) -> int:
        """Tidset of records matching per-attribute value-set selections.

        ``selections`` maps attribute index to the set of admitted value
        indices; attributes absent from the mapping admit their full domain.
        This is the record-level semantics of the paper's ``Arange``.
        """
        matrix, rows = self.item_matrix()
        mask = None
        for ai, values in selections.items():
            if not 0 <= ai < self.n_attributes:
                raise SchemaError(f"attribute index {ai} out of range")
            indices = [
                row
                for vi in values
                if (row := rows.get(Item(ai, vi))) is not None
            ]
            # One vectorized OR over the admitted values' rows, ANDed
            # into the running selection.
            union = kernels.union_reduce(matrix[indices])
            mask = union if mask is None else mask & union
        if mask is None:
            return ts.full(self.n_records)
        return kernels.unpack(mask)

    def project(self, attribute_indices: Sequence[int]) -> "RelationalTable":
        """A new table keeping only the given attributes, in the given order."""
        attrs = tuple(self.schema.attributes[i] for i in attribute_indices)
        return RelationalTable(Schema(attrs), self.data[:, list(attribute_indices)])

    # -- transactional view --------------------------------------------------

    def to_transactions(self) -> list[tuple[int, ...]]:
        """Records as transactions of globally numbered items.

        Item ``(a, v)`` becomes integer ``offset[a] + v`` where offsets
        accumulate attribute cardinalities — the encoding used by FIMI-style
        transactional files.
        """
        offsets = self.item_offsets()
        return [
            tuple(int(offsets[ai] + v) for ai, v in enumerate(row))
            for row in self.data
        ]

    def item_offsets(self) -> tuple[int, ...]:
        """Global-id offset of each attribute in the transactional encoding."""
        offsets = [0]
        for attr in self.schema.attributes[:-1]:
            offsets.append(offsets[-1] + attr.cardinality)
        return tuple(offsets)


def from_labeled_records(
    attributes: Sequence[Attribute], records: Iterable[Sequence[str]]
) -> RelationalTable:
    """Build a table from rows of value *labels* (strings).

    Convenience constructor used by the bundled example datasets and the
    CSV loader: each row must supply one label per attribute.
    """
    schema = Schema(tuple(attributes))
    rows = []
    for rec_no, record in enumerate(records):
        record = list(record)
        if len(record) != schema.n_attributes:
            raise DataError(
                f"record {rec_no} has {len(record)} fields, "
                f"expected {schema.n_attributes}"
            )
        rows.append(
            [schema.attributes[i].value_index(label) for i, label in enumerate(record)]
        )
    data = np.asarray(rows, dtype=np.int32).reshape(len(rows), schema.n_attributes)
    return RelationalTable(schema, data)
