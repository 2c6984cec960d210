"""Index statistics: every precomputed profile checked against brute force."""

import dataclasses

import numpy as np
import pytest

from repro import tidset as ts
from repro.core.mipindex import build_mip_index
from repro.dataset.schema import Attribute, Schema
from repro.dataset.synthetic import chess_like, mushroom_like, pumsb_like
from repro.dataset.table import RelationalTable
from tests.conftest import make_random_table
from tests.core.reference_mips import ref_mips


@pytest.fixture(scope="module")
def setup():
    table = make_random_table(seed=71, n_records=90,
                              cardinalities=(4, 3, 3, 2))
    index = build_mip_index(table, primary_support=0.08)
    return table, index


def test_basic_shape(setup):
    table, index = setup
    stats = index.stats
    assert stats.n_records == table.n_records
    assert stats.n_attributes == table.n_attributes
    assert stats.cardinalities == table.schema.cardinalities()
    assert stats.n_mips == index.n_mips
    assert stats.primary_support == index.primary_support


def test_length_histogram_and_derived(setup):
    _, index = setup
    stats = index.stats
    lengths = [m.length for m in ref_mips(index)]
    assert sum(stats.length_histogram.values()) == len(lengths)
    assert stats.avg_length == pytest.approx(np.mean(lengths))
    assert stats.max_length == max(lengths)


def test_mip_fixed_values_matrix(setup):
    _, index = setup
    stats = index.stats
    for i, mip in enumerate(ref_mips(index)):
        fixed = {item.attribute: item.value for item in mip.itemset}
        for a in range(stats.n_attributes):
            assert stats.mip_fixed_values[i, a] == fixed.get(a, -1)


def support_order(index):
    """The MIPs by descending global count, ties by row: the order of
    everything per-MIP the cardinality pass reads."""
    return sorted(ref_mips(index), key=lambda m: (-m.global_count, m.row))


def test_item_local_counts_matrix(setup):
    """The per-item profile is item-major: row ``j`` holds item ``j``'s
    local count inside every MIP, contiguously, in support order."""
    table, index = setup
    stats = index.stats
    assert stats.item_mip_counts.shape == (len(stats.item_rows), stats.n_mips)
    assert stats.item_mip_counts.flags.c_contiguous
    for (attribute, value), row in stats.item_rows.items():
        mask = table.item_tidsets()[(attribute, value)]
        for p, mip in enumerate(support_order(index)):
            assert stats.item_mip_counts[row, p] == ts.count(
                mip.tidset & mask
            )


def test_precomputed_fanout_and_log_counts(setup):
    _, index = setup
    stats = index.stats
    mips = support_order(index)
    assert stats.sorted_global_counts.tolist()[::-1] == [
        m.global_count for m in mips
    ]
    assert stats.mip_fanout.tolist() == [
        2.0 ** min(m.length, 16) for m in mips
    ]
    assert stats.mip_log_counts.tolist() == np.log(
        np.asarray([m.global_count for m in mips], dtype=float)
    ).tolist()


def test_support_ordered_bitsets(setup):
    """Bit ``p`` of a value's (an attribute's free) bitset is the MIP at
    support position ``p`` fixing the attribute to it (leaving it free)."""
    _, index = setup
    stats = index.stats
    mips = support_order(index)
    for a, card in enumerate(stats.cardinalities):
        fixed = [
            {item.attribute: item.value for item in m.itemset}.get(a, -1)
            for m in mips
        ]
        for v in range(card):
            assert stats.mip_value_bits[a][v] == sum(
                1 << p for p, f in enumerate(fixed) if f == v
            )
        assert stats.mip_free_bits[a] == sum(
            1 << p for p, f in enumerate(fixed) if f < 0
        )


def test_tidset_words(setup):
    _, index = setup
    assert index.stats.tidset_words == -(-index.stats.n_records // 64)


# ---------------------------------------------------------------------------
# The kernel path against the scalar loops it replaced
# ---------------------------------------------------------------------------


def scalar_statistics(index):
    """The per-MIP / per-item Python loops ``gather_statistics`` ran before
    it counted through the packed matrices — kept here as the reference."""
    mips = ref_mips(index)
    cardinalities = index.cardinalities
    n_dims = len(cardinalities)
    item_tidsets = index.table.item_tidsets()
    out = {}

    histogram = {}
    for mip in mips:
        histogram[mip.length] = histogram.get(mip.length, 0) + 1
    out["length_histogram"] = histogram

    fixed_values = np.full((len(mips), n_dims), -1, dtype=np.int32)
    for i, mip in enumerate(mips):
        for item in mip.itemset:
            fixed_values[i, item.attribute] = item.value
    out["mip_fixed_values"] = fixed_values

    # Everything per MIP but the fixed-value matrix is in support order.
    by_support = support_order(index)
    item_rows = {}
    for j, item in enumerate(sorted(item_tidsets)):
        item_rows[(item[0], item[1])] = j
    item_mip_counts = np.zeros((len(item_rows), len(mips)), dtype=np.int32)
    for p, mip in enumerate(by_support):
        for item, mask in item_tidsets.items():
            j = item_rows[(item[0], item[1])]
            item_mip_counts[j, p] = (mip.tidset & mask).bit_count()
    out["item_rows"] = item_rows
    out["item_mip_counts"] = item_mip_counts
    value_bits = [[0] * card for card in cardinalities]
    free_bits = [0] * n_dims
    for p, mip in enumerate(by_support):
        for d in range(n_dims):
            if d not in mip.fixed_attributes:
                free_bits[d] |= 1 << p
        for item in mip.itemset:
            value_bits[item.attribute][item.value] |= 1 << p
    out["mip_value_bits"] = tuple(tuple(bits) for bits in value_bits)
    out["mip_free_bits"] = tuple(free_bits)
    out["mip_fanout"] = np.asarray(
        [2.0 ** min(m.length, 16) for m in by_support], dtype=float
    )

    counts = np.asarray([m.global_count for m in mips], dtype=np.int64)
    out["sorted_global_counts"] = np.sort(counts)
    out["mip_rows"] = np.asarray([m.row for m in by_support], dtype=np.intp)
    return out


def _constant_table(n_records=10):
    attrs = tuple(Attribute(f"a{i}", ("x", "y")) for i in range(3))
    return RelationalTable(
        Schema(attrs), np.zeros((n_records, 3), dtype=np.int32)
    )


REFERENCE_CASES = {
    "chess": lambda: (chess_like(n_records=400, n_attributes=9), 0.15),
    "mushroom": lambda: (mushroom_like(n_records=400, n_attributes=9), 0.12),
    "pumsb": lambda: (pumsb_like(n_records=500, n_attributes=9), 0.15),
    "no-mip": lambda: (
        make_random_table(seed=3, n_records=40, cardinalities=(4, 4, 4)), 1.0
    ),
    "one-mip": lambda: (_constant_table(), 0.5),
    # 4200 records: 66 words per packed tidset row.
    "over-64-words": lambda: (
        make_random_table(seed=5, n_records=4200, cardinalities=(3, 2, 4, 3)),
        0.02,
    ),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_kernel_statistics_equal_scalar_loops(case):
    table, primary = REFERENCE_CASES[case]()
    index = build_mip_index(table, primary_support=primary)
    if case == "no-mip":
        assert index.n_mips == 0
    elif case == "one-mip":
        assert index.n_mips == 1
    elif case == "over-64-words":
        assert index.tidset_words > 64
    expected = scalar_statistics(index)
    stats = index.stats
    assert set(expected) < {f.name for f in dataclasses.fields(stats)}
    for name, want in expected.items():
        got = getattr(stats, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.flags.c_contiguous, name
            assert got.tobytes() == want.tobytes(), name
        elif isinstance(want, dict):
            assert list(got.items()) == list(want.items()), name
        else:
            assert got == want, name
