"""From-scratch index structures used as substrates by the query processors.

* :class:`~repro.dstruct.btree.BPlusTree` — leaf-linked ordered index
  (the paper's "standard B-trees" on base tables and S(B)/S(B,C)).
* :class:`~repro.dstruct.rtree.RTree` — Guttman R-tree for 2D query
  rectangles (SJ-JoinFirst and SJ-SSI group structures).
* :class:`~repro.dstruct.interval_tree.IntervalTree` — dynamic stabbing index
  over intervals (BJ-DOuter, SJ-SelectFirst).
* :class:`~repro.dstruct.treap.Treap` — balanced BST with SPLIT/JOIN and a
  bottom-up aggregate (Appendix B refined stabbing-partition maintenance).
* :class:`~repro.dstruct.sorted_list.SortedKeyList` — bisect-backed sorted
  sequence (BJ-MJ window list, SSI group endpoint orders).
"""

from repro.dstruct.btree import BPlusTree, Cursor
from repro.dstruct.interval_tree import IntervalTree
from repro.dstruct.rtree import Rect, RTree
from repro.dstruct.sorted_list import SortedKeyList
from repro.dstruct.treap import Treap

__all__ = [
    "BPlusTree",
    "Cursor",
    "IntervalTree",
    "Rect",
    "RTree",
    "SortedKeyList",
    "Treap",
]
