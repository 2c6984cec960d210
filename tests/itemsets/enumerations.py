"""How ``src/`` enumerates itemsets since the level-wise miners left it.

Apriori, Eclat, FP-Growth and dCHARM were deleted from ``src/`` with the
scalar counting paths (PR 24): nothing ran them.  What a request runs
instead is stated here once, the way ``op_arm`` does it, so the four
test files that used to hold those miners to one another now hold *this*
to ``tests/oracle.py``:

* the focal subset in vertical form — the packed item rows projected
  onto a focal tidset (:meth:`repro.kernels.FocalKernel.project`);
* the closed itemsets: CHARM over the projected tidsets, in the integer
  item space (:func:`repro.itemsets.charm.closed_masks`);
* every frequent itemset: the closed ones' sub-itemsets that reach the
  floor, named and counted level by level
  (:meth:`repro.kernels.FocalKernel.count_subset_lattice` with ``floor``).
"""

from repro import kernels, tidset as ts
from repro.core.operators import _mask_sources
from repro.itemsets.charm import closed_masks
from repro.itemsets.itemset import min_count_for
from tests import oracle
from tests.conftest import rows_of


def focal_kernel(table, dq=None):
    """The item rows of ``table`` over the records of ``dq`` (all of them
    when ``None``)."""
    if dq is None:
        dq = ts.full(table.n_records)
    return kernels.FocalKernel.project(
        table.schema.n_items,
        [(table.item_matrix()[0], table.item_ids(),
          kernels.pack(dq, table.tidset_words), ts.count(dq))],
    )


def focal_rows(table, dq=None):
    """The same records as the row tuples the oracle scans."""
    rows = rows_of(table)
    if dq is None:
        return rows
    return [row for tid, row in enumerate(rows) if dq >> tid & 1]


def oracle_frequent(table, minsupp, dq=None):
    """``{itemset: count}`` of every itemset frequent in ``dq``, scanned
    from the definitions (``tests/oracle.py``)."""
    rows = focal_rows(table, dq)
    return oracle.frequent_itemsets(
        rows, oracle.min_count(minsupp, len(rows)), range(table.n_attributes)
    )


def closed_by_projection(table, minsupp, dq=None):
    """``{itemset: count}`` of the itemsets closed and frequent in ``dq``."""
    kernel = focal_kernel(table, dq)
    items = table.schema.items_by_id
    closed = closed_masks(
        enumerate(kernel.item_tidsets()), min_count_for(minsupp, kernel.dq_size)
    )
    return {
        tuple(item for i, item in enumerate(items) if mask >> i & 1):
            tidset.bit_count()
        for tidset, mask in closed.items()
    }


def frequent_by_kernel(table, minsupp, dq=None):
    """``[(itemset, count), ...]`` of every itemset frequent in ``dq``, in
    the order the kernel lists them: the items, then each longer level."""
    return frequent_in(focal_kernel(table, dq), table.schema, minsupp)


def frequent_in(kernel, schema, minsupp):
    """:func:`frequent_by_kernel` over any projected universe."""
    floor = min_count_for(minsupp, kernel.dq_size)
    tidsets = kernel.item_tidsets()
    found = [
        ((schema.items_by_id[i],), tidset.bit_count())
        for i, tidset in enumerate(tidsets)
        if tidset.bit_count() >= floor
    ]
    closed = closed_masks(enumerate(tidsets), floor)
    sources = _mask_sources(list(closed.values()), schema.n_items)
    for ids, counts, _ in kernel.count_subset_lattice(sources, floor=floor):
        found += zip(schema.itemsets(ids), counts[:, -1].tolist())
    return found
