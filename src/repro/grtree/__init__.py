"""The GR-tree: an R*-tree-based index for now-relative bitemporal data.

Section 3 of the paper: node entries carry four timestamps in which the
variables ``UC`` and ``NOW`` may appear at *all* tree levels, so minimum
bounding regions (rectangles or stair shapes) grow exactly when the data
regions inside them grow.  Non-leaf entries add the ``Rectangle`` flag
(distinguishing a growing stair from a rectangle growing in both
dimensions) and the ``Hidden`` flag (tracking growing stairs temporarily
hidden under taller fixed rectangles, Figure 4(c)).
"""

from repro.grtree.check import TreeInvariantError, check_tree, verify_tree
from repro.grtree.cursor import Cursor
from repro.grtree.entries import GREntry, Predicate, bound_entries
from repro.grtree.node import GRNodeStore
from repro.grtree.specialize import SpecializedOps, numpy_available
from repro.grtree.tree import GRTree
from repro.grtree.bulk import bulk_load

__all__ = [
    "Cursor",
    "GREntry",
    "Predicate",
    "bound_entries",
    "GRNodeStore",
    "GRTree",
    "SpecializedOps",
    "TreeInvariantError",
    "bulk_load",
    "check_tree",
    "numpy_available",
    "verify_tree",
]
