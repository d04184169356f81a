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

from typing import Dict, List, Optional, Sequence

from repro.core.multidim import Box, DynamicBoxPartition
from repro.dstruct.rtree import Rect, RTree


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


class MultiAttributeIndexBase:
    """Interface shared by the multi-attribute subscription indexes."""

    name = "abstract"

    def __init__(self, dimensions: int):
        if dimensions < 1:
            raise ValueError("need at least one dimension")
        self.dimensions = dimensions
        self._subscriptions: Dict[int, BoxSubscription] = {}

    def add(self, subscription: BoxSubscription) -> None:
        if subscription.box.dimensions != self.dimensions:
            raise ValueError("subscription dimensionality mismatch")
        if subscription.qid in self._subscriptions:
            raise ValueError(f"duplicate subscription id {subscription.qid}")
        self._subscriptions[subscription.qid] = subscription
        self._index(subscription)

    def remove(self, subscription: BoxSubscription) -> None:
        # Unindex the held object: ``subscription`` may be a same-qid copy.
        self._unindex(self._subscriptions.pop(subscription.qid))

    def __len__(self) -> int:
        return len(self._subscriptions)

    def match(self, point: Sequence[float]) -> List[BoxSubscription]:
        raise NotImplementedError

    def _index(self, subscription: BoxSubscription) -> None:
        raise NotImplementedError

    def _unindex(self, subscription: BoxSubscription) -> None:
        raise NotImplementedError


class ScanBoxIndex(MultiAttributeIndexBase):
    """Brute-force oracle."""

    name = "SCAN"

    def _index(self, subscription: BoxSubscription) -> None:
        pass

    def _unindex(self, subscription: BoxSubscription) -> None:
        pass

    def match(self, point: Sequence[float]) -> List[BoxSubscription]:
        return [s for s in self._subscriptions.values() if s.matches(point)]


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

    Per group: the common-box fast path, then an R-tree (d = 2) or member
    scan fallback for events outside the common box.
    """

    name = "SSI"

    def __init__(self, dimensions: int = 2, *, epsilon: float = 1.0, fanout: int = 16):
        super().__init__(dimensions)
        self._fanout = fanout
        self._partition: DynamicBoxPartition[BoxSubscription] = DynamicBoxPartition(
            epsilon=epsilon, box_of=_subscription_box
        )
        self._rtrees: Dict[int, RTree[BoxSubscription]] = {}
        self._rebuild_structures()

    @property
    def group_count(self) -> int:
        return len(self._partition)

    def _use_rtrees(self) -> bool:
        return self.dimensions == 2

    def _rebuild_structures(self) -> None:
        if not self._use_rtrees():
            return
        self._rtrees = {}
        for group in self._partition.groups:
            rtree: RTree[BoxSubscription] = RTree(self._fanout)
            for subscription in group:
                rtree.insert(_as_rect(subscription.box), subscription)
            self._rtrees[id(group)] = rtree

    def _index(self, subscription: BoxSubscription) -> None:
        before = self._partition.reconstruction_count
        self._partition.insert(subscription)
        if self._partition.reconstruction_count != before:
            self._rebuild_structures()
        elif self._use_rtrees():
            group = self._partition.group_of(subscription)
            rtree = self._rtrees.get(id(group))
            if rtree is None:
                rtree = RTree(self._fanout)
                self._rtrees[id(group)] = rtree
            rtree.insert(_as_rect(subscription.box), subscription)

    def _unindex(self, subscription: BoxSubscription) -> None:
        group = self._partition.group_of(subscription)
        before = self._partition.reconstruction_count
        self._partition.delete(subscription)
        if self._partition.reconstruction_count != before:
            self._rebuild_structures()
        elif self._use_rtrees():
            rtree = self._rtrees[id(group)]
            rtree.remove(_as_rect(subscription.box), subscription)
            if group.size == 0:
                del self._rtrees[id(group)]

    def match(self, point: Sequence[float]) -> List[BoxSubscription]:
        if self.dimensions == 2:
            return self._match_2d(point[0], point[1])
        out: List[BoxSubscription] = []
        for group in self._partition.groups:
            common = group.common
            if common is not None and common.contains(point):
                out.extend(group)
            else:
                out.extend(s for s in group if s.matches(point))
        return out

    def _match_2d(self, x: float, y: float) -> List[BoxSubscription]:
        """2-D hot path with the common-box test inlined."""
        out: List[BoxSubscription] = []
        rtrees = self._rtrees
        for group in self._partition.groups:
            common = group.common
            if common is not None:
                lo = common.lo
                hi = common.hi
                if lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]:
                    out.extend(group)
                    continue
            out.extend(s for __, s in rtrees[id(group)].stab(x, y))
        return out
