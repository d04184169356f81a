"""From-scratch index structures used as substrates by the query processors.

* :class:`~repro.dstruct.btree.BPlusTree` — leaf-linked ordered index
  (the paper's "standard B-trees" on base tables and S(B)/S(B,C)).
* :class:`~repro.dstruct.rtree.RTree` — Guttman R-tree for 2D query
  rectangles (SJ-JoinFirst and SJ-SSI group structures).
* :class:`~repro.dstruct.interval_tree.IntervalTree` — dynamic stabbing index
  over intervals (BJ-DOuter, SJ-SelectFirst).
* :class:`~repro.dstruct.treap.Treap` — balanced BST with SPLIT/JOIN and a
  bottom-up aggregate (Appendix B refined stabbing-partition maintenance).
* :class:`~repro.dstruct.endpoint_orders.EndpointOrders` — a group's
  members in ascending-left and descending-right endpoint order, as item
  lists with parallel ``array('d')`` key columns (the SSI band, band-select
  and range groups, and BJ-MJ's window list).
"""

from repro.dstruct.btree import BPlusTree, Cursor
from repro.dstruct.endpoint_orders import EndpointOrders
from repro.dstruct.interval_tree import IntervalTree
from repro.dstruct.rtree import Rect, RTree
from repro.dstruct.treap import Treap

__all__ = [
    "BPlusTree",
    "Cursor",
    "EndpointOrders",
    "IntervalTree",
    "Rect",
    "RTree",
    "Treap",
]
