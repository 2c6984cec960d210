"""n-dimensional Hilbert curve indexing (Skilling's algorithm, AIP 2004).

Kamel & Faloutsos's packed R-tree [11] orders rectangles by the Hilbert
value of their centers before tiling them into fully packed leaves; this
module provides the coordinate -> Hilbert-index transform for arbitrary
dimensionality and precision.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

__all__ = ["hilbert_indices", "bits_needed"]

#: Widest coordinate the vectorized transform holds in an int64 lane.
_MAX_VECTOR_BITS = 62


def bits_needed(max_coordinate: int) -> int:
    """Bits per dimension required to represent coordinates up to the max."""
    if max_coordinate < 0:
        raise DataError("coordinates must be non-negative")
    return max(1, int(max_coordinate).bit_length())


def hilbert_indices(coords: np.ndarray, bits: int) -> list[int]:
    """Hilbert-curve indices of ``N`` points at once.

    ``coords`` is an ``(N, n)`` integer array of non-negative coordinates,
    each below ``2**bits``; entry ``k`` of the result lies in
    ``[0, 2**(bits * n))``, and points close on the curve are close in
    space (the property packing relies on).  Skilling's transform runs
    once over whole columns instead of once per point; the indices come
    back as Python ints because ``bits * n`` routinely exceeds 64.
    """
    x = np.array(coords, dtype=np.int64, ndmin=2)
    n_points, n = x.shape
    if n == 0:
        raise DataError("need at least one coordinate")
    if not 1 <= bits <= _MAX_VECTOR_BITS:
        raise DataError(f"bits must be in 1..{_MAX_VECTOR_BITS}, got {bits}")
    if n_points == 0:
        return []
    if x.min() < 0 or int(x.max()) >> bits:
        raise DataError(f"coordinate out of range for {bits} bits")

    m = 1 << (bits - 1)
    first = x[:, 0]
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            column = x[:, i]
            inverted = (column & q) != 0
            swap = np.where(inverted, 0, (first ^ column) & p)
            first ^= np.where(inverted, p, swap)
            column ^= swap
        q >>= 1
    for i in range(1, n):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n_points, dtype=np.int64)
    last = x[:, n - 1]
    q = m
    while q > 1:
        t ^= np.where((last & q) != 0, q - 1, 0)
        q >>= 1
    x ^= t[:, None]

    # Interleave: bit ``bits - 1`` of every dimension first, then the next
    # bit down — big-endian, front-padded to whole bytes.
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    interleaved = ((x[:, None, :] >> shifts[None, :, None]) & 1).astype(np.uint8)
    pad = -(bits * n) % 8
    padded = np.zeros((n_points, pad + bits * n), dtype=np.uint8)
    padded[:, pad:] = interleaved.reshape(n_points, bits * n)
    packed = np.packbits(padded, axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]
