"""Hotspot tracking (Section 2.2, Theorem 1).

The tracker maintains, over a dynamic set of items with interval ranges:

* ``I_H`` — an explicit list of *hotspot groups*, each stabbed by a common
  point and holding at least an (alpha/2) fraction of all items;
* ``I_S`` — a dynamic stabbing partition (Section 2.3) over the remaining
  *scattered* items.

Groups move across the boundary with hysteresis: a scattered group that
reaches ``alpha * n`` items is **promoted** into ``I_H``; a hotspot group
that falls below ``(alpha / 2) * n`` items is **demoted**, its items
re-inserted into the scattered partition one by one.  The paper's credit
argument (invariant I3) shows the amortized number of items crossing the
boundary is at most 5 per update; the tracker counts every crossing so the
property tests can check the bound directly.

Invariants maintained between calls (Theorem 1):

* (I1) ``I_H`` contains every alpha-hotspot, only (alpha/2)-hotspots, hence
  at most ``2 / alpha`` groups;
* (I2) the overall partition has at most ``(1 + eps) * tau(I) + 2 / alpha``
  groups;
* (I3) amortized boundary crossings per update <= 5.

``insert`` and ``delete`` take any number of items and check the
thresholds **once per call**, after placing them all: I1 and I2 hold
whenever the caller regains control, which is the only time anything
reads the groups.  I3 still counts updates per item (``update_count``);
``docs/ALGORITHMS.md`` §4 gives the argument.  The runtime makes one call
per shard plane and batch.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, Optional, Protocol, Sequence, Tuple

from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.partition_base import (
    DynamicGroup,
    DynamicStabbingPartitionBase,
    StabbingGroupView,
    T,
    check_groups,
)
from repro.core.stabbing import identity_interval


class HotspotListener(Protocol[T]):
    """Callbacks fired as groups cross the hotspot/scattered boundary.

    :class:`~repro.core.ssi.HotspotIndex` uses these to build (on promote)
    and drop (on demote) the per-hotspot structures.  Items that join or leave
    an existing hotspot group arrive as one ``(group, item)`` list per
    tracker call, so a counting listener pays one increment per call.
    """

    def on_promoted(self, group: DynamicGroup[T]) -> None: ...

    def on_demoted(self, group: DynamicGroup[T]) -> None: ...

    def on_hot_items_added(self, added: Sequence[Tuple[DynamicGroup[T], T]]) -> None: ...

    def on_hot_items_removed(self, removed: Sequence[Tuple[DynamicGroup[T], T]]) -> None: ...


def _default_partition_factory(
    epsilon: float, interval_of: Callable[[T], Interval]
) -> DynamicStabbingPartitionBase[T]:
    return LazyStabbingPartition(epsilon=epsilon, interval_of=interval_of)


class HotspotTracker(Generic[T]):
    """Tracks alpha-hotspots of a dynamic interval set (Theorem 1)."""

    def __init__(
        self,
        items: Optional[List[T]] = None,
        *,
        alpha: float,
        epsilon: float = 1.0,
        interval_of: Callable[[T], Interval] = identity_interval,
        partition_factory: Callable[
            [float, Callable[[T], Interval]], DynamicStabbingPartitionBase[T]
        ] = _default_partition_factory,
    ):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self._alpha = alpha
        self._interval_of = interval_of
        self._hot: List[DynamicGroup[T]] = []
        self._hot_of: Dict[int, DynamicGroup[T]] = {}
        self._scattered = partition_factory(epsilon, interval_of)
        self._n = 0
        self._listeners: List[HotspotListener[T]] = []
        self.update_count = 0
        # Boundary-crossing counters for the (I3) bound.
        self.moves_into_scattered = 0
        self.moves_out_of_scattered = 0
        if items:
            self.insert(*items)

    # -- listener plumbing --------------------------------------------------

    def add_listener(self, listener: HotspotListener[T]) -> None:
        self._listeners.append(listener)

    # -- accessors --------------------------------------------------------------

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def interval_of(self) -> Callable[[T], Interval]:
        return self._interval_of

    @property
    def hotspot_groups(self) -> List[DynamicGroup[T]]:
        """The current hotspot groups I_H (at most 2/alpha of them)."""
        return list(self._hot)

    @property
    def scattered(self) -> DynamicStabbingPartitionBase[T]:
        """The dynamic stabbing partition I_S over the scattered items."""
        return self._scattered

    def __len__(self) -> int:
        return self._n

    @property
    def hotspot_item_count(self) -> int:
        return len(self._hot_of)

    @property
    def hotspot_coverage(self) -> float:
        """Fraction of items currently living in hotspot groups."""
        return self.hotspot_item_count / self._n if self._n else 0.0

    def is_hotspot_item(self, item: T) -> bool:
        return id(item) in self._hot_of

    def boundary_moves(self) -> int:
        """Total items that have crossed the H/S boundary (for invariant I3)."""
        return self.moves_into_scattered + self.moves_out_of_scattered

    # -- updates -----------------------------------------------------------------

    def insert(self, *items: T) -> None:
        """Insert ``items``: each into the first hotspot group it overlaps
        (O(|I_H|) = O(1/alpha) brute force, as the paper allows), otherwise
        into the scattered partition; then rebalance once.

        The listeners hear of every item that entered a hotspot group in
        one ``on_hot_items_added`` call, before any promotion or demotion
        the rebalance makes.  One item is the same call as many.  An item
        already held, hot or scattered, or repeated in ``items`` raises
        ``ValueError`` before any is placed."""
        hot = self._hot
        hot_of = self._hot_of
        scattered = self._scattered
        keys = {id(item) for item in items}
        if len(keys) < len(items) or not hot_of.keys().isdisjoint(keys) or scattered.holds_any(keys):
            raise ValueError("item already present or repeated")
        interval_of = self._interval_of
        added: List[Tuple[DynamicGroup[T], T]] = []
        for item in items:
            interval = interval_of(item)
            lo, hi = interval.lo, interval.hi
            for group in hot:
                # would_remain_stabbed, inline: the first fit against the
                # cached [max lo, min hi] (an empty group's ±inf pass).
                if group.max_lo <= hi and lo <= group.min_hi:
                    group.add(item)
                    hot_of[id(item)] = group
                    added.append((group, item))
                    break
            else:
                scattered.insert(item)
        self._n += len(items)
        self.update_count += len(items)
        if added:
            for listener in self._listeners:
                listener.on_hot_items_added(added)
        self._rebalance()

    def delete(self, *items: T) -> None:
        """Delete ``items`` from their hotspot group or the scattered
        partition, drop any hotspot group they empty, then rebalance once.

        The listeners hear of every item that left a hotspot group in one
        ``on_hot_items_removed`` call, then of each emptied group's
        demotion."""
        hot_of = self._hot_of
        removed: List[Tuple[DynamicGroup[T], T]] = []
        emptied: List[DynamicGroup[T]] = []
        for item in items:
            group = hot_of.pop(id(item), None)
            if group is None:
                self._scattered.delete(item)
                continue
            group.remove(item)
            removed.append((group, item))
            if group.size == 0:
                self._hot.remove(group)
                emptied.append(group)
        self._n -= len(items)
        self.update_count += len(items)
        for listener in self._listeners:
            if removed:
                listener.on_hot_items_removed(removed)
            for group in emptied:
                listener.on_demoted(group)
        self._rebalance()

    # -- promote / demote -----------------------------------------------------------

    def _rebalance(self) -> None:
        """Promote/demote until no group violates its threshold.

        Promotions can follow demotions (demoted items may pile into an
        existing scattered group), so this loops to a fixpoint; each pass
        moves items across the boundary, and the credit argument bounds the
        total work.
        """
        while True:
            if self._promote_one():
                continue
            if self._demote_one():
                continue
            break

    def _promote_one(self) -> bool:
        threshold = self._alpha * self._n
        candidate: Optional[StabbingGroupView[T]] = None
        for group in self._scattered.iter_groups():
            if group.size >= threshold:
                candidate = group
                break
        if candidate is None:
            return False
        # Snapshot first: deleting from the scattered partition may trigger a
        # reconstruction that redistributes groups.
        members = list(candidate)
        hot_group: DynamicGroup[T] = DynamicGroup(self._interval_of)
        for item in members:
            self._scattered.delete(item)
            hot_group.add(item)
            self._hot_of[id(item)] = hot_group
            self.moves_out_of_scattered += 1
        self._hot.append(hot_group)
        for listener in self._listeners:
            listener.on_promoted(hot_group)
        return True

    def _demote_one(self) -> bool:
        threshold = (self._alpha / 2.0) * self._n
        candidate: Optional[DynamicGroup[T]] = None
        for group in self._hot:
            if group.size < threshold:
                candidate = group
                break
        if candidate is None:
            return False
        self._hot.remove(candidate)
        for listener in self._listeners:
            listener.on_demoted(candidate)
        for item in list(candidate):
            del self._hot_of[id(item)]
            self._scattered.insert(item)
            self.moves_into_scattered += 1
        return True

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Assert invariants I1 and I2 plus structural consistency (tests)."""
        from repro.core.stabbing import stabbing_number

        # Structural: hot groups stabbed, sound, and matching _hot_of.
        check_groups(self._hot, self._hot_of, self._interval_of)
        for group in self._hot:
            group.check()
        self._scattered.validate()
        total = self.hotspot_item_count + self._scattered.total_items()
        assert total == self._n, f"item count drift: {total} != {self._n}"
        if self._n == 0:
            return
        # (I1): hotspot groups are at least (alpha/2)-hotspots, scattered
        # groups are below the alpha threshold, and |I_H| <= 2/alpha.
        for group in self._hot:
            assert group.size >= (self._alpha / 2.0) * self._n
        for group in self._scattered.groups:
            assert group.size < self._alpha * self._n
        assert len(self._hot) <= 2.0 / self._alpha
        # (I2): |I| <= (1 + eps) tau(I) + 2/alpha.
        all_items = [item for group in self._hot for item in group]
        for group in self._scattered.groups:
            all_items.extend(group)
        tau = stabbing_number(all_items, self._interval_of)
        epsilon = getattr(self._scattered, "epsilon", 1.0)
        total_groups = len(self._hot) + len(self._scattered)
        assert total_groups <= (1.0 + epsilon) * tau + 2.0 / self._alpha + 1e-9
