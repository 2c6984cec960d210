"""R-tree substrate: geometry, the packed flat tree, supported filter."""

from repro.rtree.flat import FlatLevel, FlatRTree
from repro.rtree.geometry import Rect
from repro.rtree.hilbert import bits_needed, hilbert_indices
from repro.rtree.packing import pack_hilbert
from repro.rtree.supported import SupportedRTree

__all__ = [
    "Rect",
    "hilbert_indices",
    "bits_needed",
    "FlatLevel",
    "FlatRTree",
    "pack_hilbert",
    "SupportedRTree",
]
