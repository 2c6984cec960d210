"""Hilbert curve: bijectivity, range, and locality."""

import itertools

import numpy as np
import pytest

from repro.errors import DataError
from repro.rtree.hilbert import bits_needed, hilbert_indices
from tests.rtree.reference import hilbert_index


def test_bits_needed():
    assert bits_needed(0) == 1
    assert bits_needed(1) == 1
    assert bits_needed(2) == 2
    assert bits_needed(255) == 8
    with pytest.raises(DataError):
        bits_needed(-1)


@pytest.mark.parametrize("n_dims,bits", [(1, 4), (2, 3), (3, 2)])
def test_bijective(n_dims, bits):
    """Every grid point maps to a distinct index within the curve's range."""
    side = 1 << bits
    grid = np.array(list(itertools.product(range(side), repeat=n_dims)))
    keys = hilbert_indices(grid, bits)
    assert all(0 <= idx < side**n_dims for idx in keys)
    assert len(set(keys)) == side**n_dims


def test_2d_locality():
    """Consecutive indices along the curve are adjacent grid cells."""
    bits, side = 3, 8
    grid = [(x, y) for x in range(side) for y in range(side)]
    by_index = dict(zip(hilbert_indices(np.array(grid), bits), grid))
    for i in range(side * side - 1):
        (x0, y0), (x1, y1) = by_index[i], by_index[i + 1]
        assert abs(x0 - x1) + abs(y0 - y1) == 1  # Manhattan-adjacent


def test_rejects_out_of_range():
    with pytest.raises(DataError):
        hilbert_indices([[4]], bits=2)
    with pytest.raises(DataError):
        hilbert_indices([[-1, 0]], bits=2)
    with pytest.raises(DataError):
        hilbert_indices(np.zeros((1, 0), dtype=np.int64), bits=2)


def test_1d_is_identity():
    assert hilbert_indices(np.arange(16)[:, None], bits=4) == list(range(16))


@pytest.mark.parametrize(
    "n_dims,bits",
    [(1, 1), (3, 1), (1, 7), (2, 3), (4, 5), (16, 5), (40, 6), (3, 62)],
)
def test_indices_equal_scalar_on_random_points(n_dims, bits):
    """The vectorized transform is the scalar reference, point for point —
    including the all-zero and all-maximum corners and keys far past 64
    bits (``bits * n_dims`` up to 240 here)."""
    rng = np.random.default_rng(n_dims * 100 + bits)
    coords = rng.integers(0, 1 << bits, size=(200, n_dims), dtype=np.int64)
    coords[0] = 0
    coords[1] = (1 << bits) - 1
    coords[2, ::2] = (1 << bits) - 1
    expected = [hilbert_index(tuple(map(int, row)), bits) for row in coords]
    assert hilbert_indices(coords, bits) == expected


def test_indices_edge_inputs():
    assert hilbert_indices(np.zeros((0, 3), dtype=np.int64), bits=4) == []
    assert hilbert_indices([[5, 2]], bits=3) == [hilbert_index((5, 2), 3)]
    with pytest.raises(DataError):
        hilbert_indices([[4, 0]], bits=2)
    with pytest.raises(DataError):
        hilbert_indices([[-1, 0]], bits=2)
    with pytest.raises(DataError):
        hilbert_indices(np.zeros((2, 0), dtype=np.int64), bits=2)
    with pytest.raises(DataError):
        hilbert_indices([[0, 0]], bits=63)
