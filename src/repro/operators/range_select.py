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

from typing import Dict, List, Optional

from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.partition_base import DynamicStabbingPartitionBase
from repro.core.ssi import StabbingSetIndex
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
    """Interface shared by the range-subscription indexes."""

    name = "abstract"

    def __init__(self) -> None:
        self._subscriptions: Dict[int, RangeSubscription] = {}

    def add(self, subscription: RangeSubscription) -> None:
        if subscription.qid in self._subscriptions:
            raise ValueError(f"duplicate subscription id {subscription.qid}")
        self._subscriptions[subscription.qid] = subscription
        self._index(subscription)

    def remove(self, subscription: RangeSubscription) -> None:
        # Unindex the held object: ``subscription`` may be a same-qid copy.
        self._unindex(self._subscriptions.pop(subscription.qid))

    def __len__(self) -> int:
        return len(self._subscriptions)

    def match(self, x: float) -> List[RangeSubscription]:
        raise NotImplementedError

    def _index(self, subscription: RangeSubscription) -> None:
        raise NotImplementedError

    def _unindex(self, subscription: RangeSubscription) -> None:
        raise NotImplementedError


class ScanRangeIndex(RangeIndexBase):
    """Brute-force oracle: test every subscription."""

    name = "SCAN"

    def _index(self, subscription: RangeSubscription) -> None:
        pass

    def _unindex(self, subscription: RangeSubscription) -> None:
        pass

    def match(self, x: float) -> List[RangeSubscription]:
        return [s for s in self._subscriptions.values() if s.matches(x)]


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
            StabbingSetIndex(
                partition,
                make_structure=EndpointOrders,
                add_item=lambda g, s: g.add(s, s.range),
                remove_item=lambda g, s: g.remove(s, s.range),
            )
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
        for group in self._ssi.partition.groups:
            common = group.common
            structure = self._ssi.structure_of(group)
            _match_group(structure, common, x, out)
        return out


def _match_group(
    structure: EndpointOrders[RangeSubscription],
    common: Interval,
    x: float,
    out: List[RangeSubscription],
) -> None:
    """The per-group decision shared by the SSI and hotspot range indexes."""
    if common.lo <= x <= common.hi:
        # x stabs the common intersection: every member matches.
        out.extend(structure.by_lo)
    elif x < common.lo:
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
        from repro.core.hotspot_tracker import HotspotTracker

        self._tracker: "HotspotTracker[RangeSubscription]" = HotspotTracker(
            alpha=alpha, epsilon=epsilon, interval_of=subscription_interval
        )
        self._tracker.add_listener(self)
        self._hot_structures: Dict[int, EndpointOrders[RangeSubscription]] = {}
        self._scattered: Dict[int, RangeSubscription] = {}
        self._scattered_tree: IntervalTree[RangeSubscription] = IntervalTree()

    # -- tracker listener callbacks -------------------------------------

    def on_promoted(self, group) -> None:
        structure: EndpointOrders[RangeSubscription] = EndpointOrders()
        for subscription in group:
            structure.add(subscription, subscription.range)
            if id(subscription) in self._scattered:
                del self._scattered[id(subscription)]
                self._scattered_tree.remove(subscription.range, subscription)
        self._hot_structures[id(group)] = structure

    def on_demoted(self, group) -> None:
        del self._hot_structures[id(group)]
        for subscription in group:
            self._add_scattered(subscription)

    def on_hot_items_added(self, added) -> None:
        for group, subscription in added:
            self._hot_structures[id(group)].add(subscription, subscription.range)

    def on_hot_items_removed(self, removed) -> None:
        for group, subscription in removed:
            self._hot_structures[id(group)].remove(subscription, subscription.range)

    def _add_scattered(self, subscription: RangeSubscription) -> None:
        if id(subscription) not in self._scattered:
            self._scattered[id(subscription)] = subscription
            self._scattered_tree.insert(subscription.range, subscription)

    # -- index interface --------------------------------------------------

    def _index(self, subscription: RangeSubscription) -> None:
        self._tracker.insert(subscription)
        if not self._tracker.is_hotspot_item(subscription):
            self._add_scattered(subscription)

    def _unindex(self, subscription: RangeSubscription) -> None:
        if id(subscription) in self._scattered:
            del self._scattered[id(subscription)]
            self._scattered_tree.remove(subscription.range, subscription)
        self._tracker.delete(subscription)

    @property
    def hotspot_coverage(self) -> float:
        return self._tracker.hotspot_coverage

    def match(self, x: float) -> List[RangeSubscription]:
        out: List[RangeSubscription] = []
        for group in self._tracker.hotspot_groups:
            _match_group(self._hot_structures[id(group)], group.common, x, out)
        out.extend(s for __, s in self._scattered_tree.iter_stab(x))
        return out

    def validate(self) -> None:
        self._tracker.validate()
        hot = {id(s) for g in self._tracker.hotspot_groups for s in g}
        assert hot.isdisjoint(self._scattered.keys())
        assert len(hot) + len(self._scattered) == len(self._subscriptions)
