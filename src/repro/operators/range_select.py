"""Group processing of pure range-selection subscriptions.

The introduction's motivating case: continuous queries of the form
``sigma_{a_i <= A <= b_i} R`` are classically indexed as intervals (an interval
tree), answering each incoming value with one stabbing
query in O(log n + k).  The SSI view does strictly better on clustered
subscriptions: maintain a stabbing partition of the ranges, and for an
incoming value x decide *per group* with stabbing point p and common
intersection C = [c_lo, c_hi]:

* x in C      -> every member contains x (C is the members' intersection);
* x < c_lo    -> a member contains x iff its left endpoint <= x (its right
  endpoint is >= c_lo > x automatically), so scan the ascending-left-
  endpoint order and stop at the first miss;
* x > c_hi    -> symmetric with the descending-right-endpoint order.

Every comparison after the first either reports a subscriber or terminates
the group, so processing costs O(tau + k) with **no** logarithmic factor
--- better than any single-structure stabbing index when tau is small.

Baselines with the same interface: :class:`IntervalTreeRangeIndex`
(classic O(log n + k)) and :class:`ScanRangeIndex` (brute force).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.partition_base import DynamicStabbingPartitionBase
from repro.core.ssi import HotspotIndex, StabbingSetIndex
from repro.dstruct.endpoint_orders import EndpointOrders
from repro.dstruct.interval_tree import IntervalTree


class RangeSubscription:
    """A standing range-selection subscription over a numeric attribute."""

    __slots__ = ("qid", "range")

    _ids = iter(range(1, 1 << 62))

    def __init__(self, range_: Interval, qid: Optional[int] = None):
        self.qid = qid if qid is not None else next(self._ids)
        self.range = range_

    def matches(self, x: float) -> bool:
        return self.range.contains(x)

    def __repr__(self) -> str:
        return f"RangeSubscription(qid={self.qid}, range={self.range})"


def subscription_interval(subscription: RangeSubscription) -> Interval:
    return subscription.range


class RangeIndexBase:
    """The subscription registry every range and box index shares.

    It holds each subscription under its qid; a subclass indexes what it
    holds.  Unindexed, it matches by testing every subscription, which is
    the brute-force oracle.
    """

    name = "abstract"

    def __init__(self) -> None:
        self._subscriptions: Dict[int, Any] = {}

    def add(self, subscription: Any) -> None:
        if subscription.qid in self._subscriptions:
            raise ValueError(f"duplicate subscription id {subscription.qid}")
        self._subscriptions[subscription.qid] = subscription
        self._index(subscription)

    def remove(self, subscription: Any) -> None:
        # Unindex the held object: ``subscription`` may be a same-qid copy.
        self._unindex(self._subscriptions.pop(subscription.qid))

    def __len__(self) -> int:
        return len(self._subscriptions)

    def match(self, event: Any) -> List[Any]:
        return [s for s in self._subscriptions.values() if s.matches(event)]

    def _index(self, subscription: Any) -> None:
        pass

    def _unindex(self, subscription: Any) -> None:
        pass


class ScanRangeIndex(RangeIndexBase):
    """Brute-force oracle: test every subscription."""

    name = "SCAN"


class IntervalTreeRangeIndex(RangeIndexBase):
    """The classic approach: one stabbing query on an interval tree."""

    name = "ITREE"

    def __init__(self) -> None:
        super().__init__()
        self._tree: IntervalTree[RangeSubscription] = IntervalTree()

    def _index(self, subscription: RangeSubscription) -> None:
        self._tree.insert(subscription.range, subscription)

    def _unindex(self, subscription: RangeSubscription) -> None:
        self._tree.remove(subscription.range, subscription)

    def match(self, x: float) -> List[RangeSubscription]:
        return [s for __, s in self._tree.iter_stab(x)]


class SSIRangeIndex(RangeIndexBase):
    """SSI group processing applied to *every* group: O(tau + k) per event.

    Excellent when subscriptions cluster (tau small); on scattered
    workloads tau approaches n and the per-group iteration loses to the
    classic O(log n + k) indexes --- use :class:`HotspotRangeIndex` when
    the clusteredness is unknown."""

    name = "SSI"

    def __init__(
        self,
        *,
        partition: Optional[DynamicStabbingPartitionBase[RangeSubscription]] = None,
        epsilon: float = 1.0,
    ):
        super().__init__()
        if partition is None:
            partition = LazyStabbingPartition(
                epsilon=epsilon, interval_of=subscription_interval
            )
        self._ssi: StabbingSetIndex[RangeSubscription, EndpointOrders[RangeSubscription]] = (
            StabbingSetIndex(partition)
        )

    @property
    def group_count(self) -> int:
        return self._ssi.group_count()

    def _index(self, subscription: RangeSubscription) -> None:
        self._ssi.insert(subscription)

    def _unindex(self, subscription: RangeSubscription) -> None:
        self._ssi.delete(subscription)

    def match(self, x: float) -> List[RangeSubscription]:
        out: List[RangeSubscription] = []
        structure_of = self._ssi.structure_of
        for group in self._ssi.partition.groups:
            _match_group(structure_of(group), x, out)
        return out


def _match_group(
    structure: EndpointOrders[RangeSubscription], x: float, out: List[RangeSubscription]
) -> None:
    """The per-group decision shared by the SSI and hotspot range indexes.
    The members' common intersection is [largest lo, smallest hi], read
    at the tail of each order."""
    common_lo = structure.lo_keys[-1]
    if common_lo <= x <= -structure.neg_hi_keys[-1]:
        # x stabs the common intersection: every member matches.
        out.extend(structure.by_lo)
    elif x < common_lo:
        # Members reach x iff they start at or before it.
        for subscription in structure.by_lo:
            if subscription.range.lo > x:
                break
            out.append(subscription)
    else:
        for subscription in structure.by_hi_desc:
            if subscription.range.hi < x:
                break
            out.append(subscription)


class HotspotRangeIndex(RangeIndexBase):
    """Hotspot-filtered group processing (Section 2.2 applied to
    selections): SSI-style per-group matching for the hotspot groups, an
    interval tree over the scattered remainder.

    Per event: O(#hotspots + log |scattered| + k) --- the best of both
    worlds regardless of how clustered the subscriptions are.
    """

    name = "HOTSPOT"

    def __init__(self, *, alpha: float = 0.01, epsilon: float = 1.0):
        super().__init__()
        self._scattered_tree: IntervalTree[RangeSubscription] = IntervalTree()
        self._hot: HotspotIndex[RangeSubscription, EndpointOrders[RangeSubscription]]
        self._hot = HotspotIndex(
            HotspotTracker(alpha=alpha, epsilon=epsilon, interval_of=subscription_interval),
            scatter=lambda s: self._scattered_tree.insert(s.range, s),
            gather=lambda s: self._scattered_tree.remove(s.range, s),
        )

    def _index(self, subscription: RangeSubscription) -> None:
        self._hot.insert(subscription)

    def _unindex(self, subscription: RangeSubscription) -> None:
        self._hot.delete(subscription)

    @property
    def hotspot_coverage(self) -> float:
        return self._hot.tracker.hotspot_coverage

    def match(self, x: float) -> List[RangeSubscription]:
        out: List[RangeSubscription] = []
        for structure in self._hot.group_table()[1]:
            _match_group(structure, x, out)
        out.extend(s for __, s in self._scattered_tree.iter_stab(x))
        return out

    def validate(self) -> None:
        self._hot.validate(lambda group, orders: orders.check(group, subscription_interval))
        assert len(self._hot) == len(self._subscriptions)
        held = {id(s): interval for interval, s in self._scattered_tree}
        assert len(self._scattered_tree) == len(held) and held.keys() == self._hot.scattered.keys()
        assert all(held[key] == s.range for key, s in self._hot.scattered.items())
