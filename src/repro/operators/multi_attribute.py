"""Multi-attribute selection subscriptions via box stabbing partitions.

The multi-dimensional counterpart of :mod:`repro.operators.range_select`:
subscriptions constrain several attributes at once (a box in attribute
space), events are attribute tuples (points).  The group-processing trick
carries over:

* if the event point lies inside a group's *common box*, every member of
  the group matches --- reported in O(output) with zero per-member tests;
* otherwise only that group's members can still partially match, tested
  against the group's own R-tree (d = 2) or by a member scan (other d).

Clustered multi-attribute workloads (the common case the paper's hotspot
premise predicts) thus pay roughly O(tau + k) per event, against
O(g(n) + k) for one flat R-tree over all subscriptions.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.multidim import Box, DynamicBoxPartition
from repro.core.ssi import StabbingSetIndex
from repro.dstruct.rtree import Rect, RTree
from repro.operators.range_select import RangeIndexBase


class BoxSubscription:
    """A standing multi-attribute selection subscription."""

    __slots__ = ("qid", "box")

    _ids = iter(range(1, 1 << 62))

    def __init__(self, box: Box, qid: Optional[int] = None):
        self.qid = qid if qid is not None else next(self._ids)
        self.box = box

    def matches(self, point: Sequence[float]) -> bool:
        return self.box.contains(point)

    def __repr__(self) -> str:
        return f"BoxSubscription(qid={self.qid}, box={self.box})"


def _subscription_box(subscription: BoxSubscription) -> Box:
    return subscription.box


def _as_rect(box: Box) -> Rect:
    assert box.dimensions == 2
    return Rect(box.lo[0], box.lo[1], box.hi[0], box.hi[1])


def _rtree_of(members: Iterable[BoxSubscription], fanout: int) -> RTree[BoxSubscription]:
    rtree: RTree[BoxSubscription] = RTree(fanout)
    for subscription in members:
        rtree.insert(_as_rect(subscription.box), subscription)
    return rtree


class MultiAttributeIndexBase(RangeIndexBase):
    """The range indexes' subscription registry over boxes of one
    dimensionality."""

    def __init__(self, dimensions: int):
        if dimensions < 1:
            raise ValueError("need at least one dimension")
        super().__init__()
        self.dimensions = dimensions

    def add(self, subscription: BoxSubscription) -> None:
        if subscription.box.dimensions != self.dimensions:
            raise ValueError("subscription dimensionality mismatch")
        super().add(subscription)


class ScanBoxIndex(MultiAttributeIndexBase):
    """Brute-force oracle."""

    name = "SCAN"


class RTreeBoxIndex(MultiAttributeIndexBase):
    """Flat R-tree over all subscription boxes (2-D only): the standard
    single-structure approach, O(g(n) + k) per event."""

    name = "RTREE"

    def __init__(self, dimensions: int = 2, *, fanout: int = 16):
        if dimensions != 2:
            raise ValueError("RTreeBoxIndex supports exactly 2 dimensions")
        super().__init__(dimensions)
        self._rtree: RTree[BoxSubscription] = RTree(fanout)

    def _index(self, subscription: BoxSubscription) -> None:
        self._rtree.insert(_as_rect(subscription.box), subscription)

    def _unindex(self, subscription: BoxSubscription) -> None:
        self._rtree.remove(_as_rect(subscription.box), subscription)

    def match(self, point: Sequence[float]) -> List[BoxSubscription]:
        return [s for __, s in self._rtree.stab(point[0], point[1])]


class SSIBoxIndex(MultiAttributeIndexBase):
    """Box-stabbing-partition group processing (the Section 6 extension).

    Per group: the common-box fast path, then the group's R-tree (d = 2,
    kept by a :class:`~repro.core.ssi.StabbingSetIndex`) or a member scan
    (other d) for events outside the common box.
    """

    name = "SSI"

    def __init__(self, dimensions: int = 2, *, epsilon: float = 1.0, fanout: int = 16):
        super().__init__(dimensions)
        self._partition: DynamicBoxPartition[BoxSubscription] = DynamicBoxPartition(
            epsilon=epsilon, box_of=_subscription_box
        )
        self._ssi: Optional[StabbingSetIndex[BoxSubscription, RTree[BoxSubscription]]] = None
        if dimensions == 2:
            self._ssi = StabbingSetIndex(
                self._partition,
                make_structure=lambda members: _rtree_of(members, fanout),
                add_item=lambda rtree, s: rtree.insert(_as_rect(s.box), s),
                remove_item=lambda rtree, s: rtree.remove(_as_rect(s.box), s),
            )

    @property
    def group_count(self) -> int:
        return len(self._partition)

    def _index(self, subscription: BoxSubscription) -> None:
        self._partition.insert(subscription)

    def _unindex(self, subscription: BoxSubscription) -> None:
        self._partition.delete(subscription)

    def match(self, point: Sequence[float]) -> List[BoxSubscription]:
        if self._ssi is not None:
            return self._match_2d(self._ssi, point[0], point[1])
        out: List[BoxSubscription] = []
        for group in self._partition.groups:
            common = group.common
            if common is not None and common.contains(point):
                out.extend(group)
            else:
                out.extend(s for s in group if s.matches(point))
        return out

    def _match_2d(
        self, ssi: StabbingSetIndex[BoxSubscription, RTree[BoxSubscription]], x: float, y: float
    ) -> List[BoxSubscription]:
        """2-D hot path with the common-box test inlined."""
        out: List[BoxSubscription] = []
        structure_of = ssi.structure_of
        for group in self._partition.groups:
            common = group.common
            if common is not None:
                lo = common.lo
                hi = common.hi
                if lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]:
                    out.extend(group)
                    continue
            out.extend(s for __, s in structure_of(group).stab(x, y))
        return out
