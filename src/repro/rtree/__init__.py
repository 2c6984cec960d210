"""R-tree substrate: geometry, dynamic/packed trees, supported filter, costs."""

from repro.rtree.costmodel import expected_leaf_matches, expected_node_accesses
from repro.rtree.flat import FlatLevel, FlatRTree
from repro.rtree.geometry import Rect, mbr_of
from repro.rtree.hilbert import bits_needed, hilbert_index, hilbert_indices
from repro.rtree.node import Entry, Node
from repro.rtree.packing import pack_hilbert, pack_str
from repro.rtree.rstar import RStarTree
from repro.rtree.rtree import LevelStat, RTree, SearchResult
from repro.rtree.supported import SupportedRTree

__all__ = [
    "Rect",
    "mbr_of",
    "hilbert_index",
    "hilbert_indices",
    "bits_needed",
    "Entry",
    "Node",
    "FlatLevel",
    "FlatRTree",
    "RTree",
    "RStarTree",
    "SearchResult",
    "LevelStat",
    "pack_hilbert",
    "pack_str",
    "SupportedRTree",
    "expected_node_accesses",
    "expected_leaf_matches",
]
