"""n-dimensional rectangles and the box helpers the oracle tests share."""

import numpy as np
import pytest

from repro.errors import DataError, IndexError_
from repro.rtree.geometry import Rect
from repro.rtree.supported import SupportedRTree
from tests.rtree import reference


def test_construction_and_shape():
    r = Rect((0, 1), (2, 3))
    assert r.n_dims == 2
    assert r.lows == (0, 1) and r.highs == (2, 3)
    assert reference.extents(r) == (3, 3)


def test_point_and_full_domain():
    p = reference.point((2, 5))
    assert p.lows == p.highs == (2, 5)
    assert reference.extents(p) == (1, 1)
    full = reference.full_domain((3, 4))
    assert full == Rect((0, 0), (2, 3))


def test_validation():
    with pytest.raises(DataError):
        Rect((2,), (1,))
    with pytest.raises(DataError):
        Rect((0, 0), (1,))
    with pytest.raises(DataError):
        Rect((), ())


def test_intersects():
    """The oracle's overlap test: closed boxes, so touching intersects."""
    a = Rect((0, 0), (2, 2))
    for b, meets in ((Rect((2, 2), (4, 4)), True),
                     (Rect((1, 1), (1, 1)), True),
                     (Rect((3, 0), (4, 2)), False)):
        assert reference.overlaps(a.lows, a.highs, b.lows, b.highs) is meets


def test_contains():
    outer = Rect((0, 0), (5, 5))
    assert reference.contains_point(outer, (5, 5))
    assert reference.contains_point(outer, (0, 0))
    assert not reference.contains_point(outer, (6, 0))


def test_dimension_mismatch():
    tree = SupportedRTree.build(np.zeros((1, 2), dtype=np.int64),
                                np.ones((1, 2), dtype=np.int64),
                                np.ones(1, dtype=np.int64))
    with pytest.raises(IndexError_):
        tree.search_arrays(Rect((0,), (1,)))
