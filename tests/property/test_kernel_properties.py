"""Property tests: every batched kernel agrees with the pure-int reference.

``repro.kernels`` is an optimization layer only — ``repro.tidset`` ints
remain the semantic reference.  For random tidset batches (including
universes with ``n % 64 != 0`` trailing-word edges and empty batches /
empty masks) every kernel must agree *exactly* with the big-int path.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels, tidset as ts

#: ``np.bitwise_count`` is the one popcount path since the numpy >= 2
#: floor; the ``native`` id keeps the names these properties had beside
#: their deleted numpy-1.x lookup-table leg.
native_path = pytest.mark.parametrize("popcount_path", ["native"])


#: Universes straddling the word boundary: n % 64 == 0 and != 0, n < 64.
universes = st.sampled_from([1, 7, 63, 64, 65, 128, 130, 300])


@st.composite
def batches(draw):
    """A universe size plus a batch of random tidsets inside it."""
    n = draw(universes)
    k = draw(st.integers(min_value=0, max_value=8))
    sets = [
        ts.from_tids(
            draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        )
        for _ in range(k)
    ]
    mask = ts.from_tids(
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    )
    return n, sets, mask


@native_path
@given(batches())
def test_pack_unpack_roundtrip(popcount_path, batch):
    n, sets, mask = batch
    words = kernels.n_words(n)
    matrix = kernels.pack_many(sets, words)
    assert matrix.shape == (len(sets), words)
    assert [kernels.unpack(row) for row in matrix] == sets
    assert kernels.unpack(kernels.pack(mask, words)) == mask
    assert kernels.unpack(kernels.full_row(n, words)) == ts.full(n)
    assert kernels.unpack(kernels.zero_row(words)) == ts.EMPTY


@native_path
@given(batches())
def test_counts_match_reference(popcount_path, batch):
    n, sets, mask = batch
    words = kernels.n_words(n)
    matrix = kernels.pack_many(sets, words)
    packed_mask = kernels.pack(mask, words)
    assert list(kernels.popcount_rows(matrix)) == [
        ts.count(s) for s in sets
    ]
    assert list(kernels.and_count(matrix, packed_mask)) == [
        ts.count(ts.intersect(s, mask)) for s in sets
    ]
    assert list(kernels.andnot_count(matrix, packed_mask)) == [
        ts.count(ts.difference(s, mask)) for s in sets
    ]


@native_path
@given(batches())
def test_set_algebra_matches_reference(popcount_path, batch):
    n, sets, mask = batch
    words = kernels.n_words(n)
    matrix = kernels.pack_many(sets, words)
    packed_mask = kernels.pack(mask, words)
    inter = kernels.intersect_many(matrix, packed_mask)
    assert [kernels.unpack(row) for row in inter] == [
        s & mask for s in sets
    ]
    assert list(kernels.subset_of(matrix, packed_mask)) == [
        ts.is_subset(s, mask) for s in sets
    ]
    assert list(kernels.is_zero_rows(matrix)) == [
        s == ts.EMPTY for s in sets
    ]
    assert kernels.unpack(kernels.union_reduce(matrix)) == reduce(
        ts.union, sets, ts.EMPTY
    )
    assert kernels.unpack(
        kernels.and_reduce(matrix, kernels.full_row(n, words))
    ) == reduce(ts.intersect, sets, ts.full(n))


@native_path
@given(universes)
def test_empty_matrix_edges(popcount_path, n):
    words = kernels.n_words(n)
    empty = kernels.pack_many([], words)
    zero = kernels.zero_row(words)
    assert empty.shape == (0, words)
    assert kernels.popcount_rows(empty).shape == (0,)
    assert kernels.and_count(empty, zero).shape == (0,)
    assert kernels.subset_of(empty, zero).shape == (0,)
    assert kernels.unpack(kernels.union_reduce(empty)) == ts.EMPTY
    # AND over zero rows is the seed (here: the packed universe).
    assert kernels.unpack(
        kernels.and_reduce(empty, kernels.full_row(n, words))
    ) == ts.full(n)


@native_path
@given(universes)
def test_empty_mask_edge(popcount_path, n):
    words = kernels.n_words(n)
    matrix = kernels.pack_many([ts.full(n)], words)
    zero = kernels.zero_row(words)
    assert list(kernels.and_count(matrix, zero)) == [0]
    assert list(kernels.subset_of(matrix, zero)) == [n == 0]
    assert kernels.unpack(
        kernels.intersect_many(matrix, zero)[0]
    ) == ts.EMPTY


def test_pack_overflow_raises():
    with pytest.raises(OverflowError):
        kernels.pack(1 << 64, 1)
    with pytest.raises(ValueError):
        kernels.pack(-1, 1)


def test_popcount_elementwise_paths_agree():
    rng = np.random.default_rng(7)
    array = rng.integers(0, 2**63, size=(13, 5), dtype=np.uint64)
    expected = [[int(word).bit_count() for word in row] for row in array]
    assert kernels.popcount(array).tolist() == expected


def test_subset_lattice_counts_do_not_depend_on_the_slab_cap(monkeypatch):
    """The sub-itemset table is filled in slices of item ranges that fit
    the slab cap; one item per slice counts exactly what one slice for all
    does, and both equal the per-subset big-int reference."""
    rng = np.random.default_rng(5)
    n_records, n_items = 300, 7
    tidsets = [
        ts.from_array(np.flatnonzero(rng.random(n_records) < 0.6))
        for _ in range(n_items)
    ]
    words = kernels.n_words(n_records)
    dq = ts.from_array(np.flatnonzero(rng.random(n_records) < 0.5))
    kernel = kernels.FocalKernel(
        kernels.project_rows(
            kernels.pack_many(tidsets, words), kernels.pack(dq, words)
        ),
        ts.count(dq),
    )
    sources = [(0, 1, 2), (1, 3, 6), (2, 4, 5), (0, 5, 6), (3, 4, 6)]
    [(ids, whole, _)] = kernel.count_subset_lattice(sources)
    assert ids.tolist() == [list(source) for source in sources]
    for rows_per_slab in (0, 3, 7, 20):
        monkeypatch.setattr(
            kernels, "LATTICE_SLAB_BYTES", max(1, rows_per_slab * words * 8)
        )
        [(_, sliced, _)] = kernel.count_subset_lattice(sources)
        assert np.array_equal(sliced, whole), rows_per_slab
    for j, source in enumerate(sources):
        for mask in range(8):
            expected = reduce(
                lambda acc, b: acc & tidsets[source[b]],
                [b for b in range(3) if mask >> b & 1],
                dq,
            )
            assert whole[j, mask] == ts.count(expected)
