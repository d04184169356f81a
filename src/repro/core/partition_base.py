"""Shared machinery for dynamic stabbing-partition maintainers.

Both maintenance strategies of Section 2.3 (the lazy strategy of Lemma 3 and
the refined algorithm of Appendix B) expose the same interface: insert/delete
items carrying intervals, enumerate the current groups, and notify listeners
when group membership changes so that higher layers (the SSI per-group
structures, the hotspot tracker) can stay synchronized.

Items are arbitrary objects mapped to intervals by an ``interval_of``
function; they are identified by object identity, so two distinct continuous
queries may carry equal ranges.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import Any, Callable, Dict, Generic, Iterable, Iterator, List, Optional, Protocol, TypeVar

from repro.core.intervals import Interval, endpoints_equal
from repro.core.stabbing import identity_interval

T = TypeVar("T")


class StabbingGroupView(Protocol[T]):
    """Structural interface of a maintained stabbing group.

    Every maintainer exposes groups through this shape — the sorted-
    endpoint-array :class:`DynamicGroup` here, the treap-backed
    ``RefinedGroup`` of the Appendix B algorithm and the box partition's
    ``BoxGroup`` — so listeners and the SSI layer are typed against the
    protocol, not a concrete class.  ``common`` is the members'
    intersection (an :class:`Interval`, or a ``Box``) and
    ``stabbing_point`` a point inside it (a number, or a tuple).
    """

    @property
    def size(self) -> int: ...

    @property
    def items(self) -> List[T]: ...

    @property
    def common(self) -> Any: ...

    @property
    def stabbing_point(self) -> Any: ...

    def add(self, item: T) -> None: ...

    def remove(self, item: T) -> None: ...

    def __iter__(self) -> Iterator[T]: ...

    def __len__(self) -> int: ...


class PartitionListener(Protocol[T]):
    """Callbacks fired by a dynamic partition as its groups evolve.

    ``on_rebuilt`` replaces the per-item callbacks during a reconstruction
    stage: listeners should drop all per-group state and rebuild from the
    partition's current groups.
    """

    def on_group_created(self, group: "StabbingGroupView[T]") -> None: ...

    def on_group_destroyed(self, group: "StabbingGroupView[T]") -> None: ...

    def on_item_added(self, group: "StabbingGroupView[T]", item: T) -> None: ...

    def on_item_removed(self, group: "StabbingGroupView[T]", item: T) -> None: ...

    def on_rebuilt(self, partition: "DynamicStabbingPartitionBase[T]") -> None: ...


class DynamicGroup(Generic[T]):
    """A mutable stabbing group: members plus their maintained intersection.

    The common intersection is kept exactly (not just a stabbing point) via
    sorted arrays of left and right endpoints, so a deletion that *widens*
    the intersection finds the new extreme at an array end.  This is the
    "more careful implementation" the paper recommends for the insertion
    refinement.
    """

    __slots__ = ("_items", "size", "_los", "_his", "_interval_of", "max_lo", "min_hi")

    def __init__(self, interval_of: Callable[[T], Interval]):
        self._items: Dict[int, T] = {}
        # len(_items) as a plain attribute: the tracker reads it per update.
        self.size = 0
        self._los = array("d")
        self._his = array("d")
        self._interval_of = interval_of
        # Cached intersection endpoints (= max lo / min hi of members; read
        # only outside this class): the first-fit loops of the tracker and
        # the lazy partition test every group against a new interval with
        # these two attribute reads, inline.
        self.max_lo = float("-inf")
        self.min_hi = float("inf")

    def add(self, item: T) -> None:
        key = id(item)
        if key in self._items:
            raise ValueError("item already present in group")
        interval = self._interval_of(item)
        self._items[key] = item
        self.size += 1
        insort(self._los, interval.lo)
        insort(self._his, interval.hi)
        if interval.lo > self.max_lo:
            self.max_lo = interval.lo
        if interval.hi < self.min_hi:
            self.min_hi = interval.hi

    def remove(self, item: T) -> None:
        interval = self._interval_of(item)
        del self._items[id(item)]
        self.size -= 1
        _remove_endpoint(self._los, interval.lo)
        _remove_endpoint(self._his, interval.hi)
        if not self._items:
            self.max_lo = float("-inf")
            self.min_hi = float("inf")
        else:
            # Exact comparisons are sound here: max_lo/min_hi are copied
            # verbatim from member endpoints, so a departing member can only
            # have *been* the cached extreme if its endpoint is bit-identical
            # to it (see endpoints_equal for the full argument).
            if endpoints_equal(interval.lo, self.max_lo):
                self.max_lo = self._los[-1]
            if endpoints_equal(interval.hi, self.min_hi):
                self.min_hi = self._his[0]

    def __contains__(self, item: T) -> bool:
        return id(item) in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items.values())

    @property
    def items(self) -> List[T]:
        return list(self._items.values())

    @property
    def common(self) -> Optional[Interval]:
        """Common intersection of all members (None iff empty group)."""
        if not self._items:
            return None
        assert self.max_lo <= self.min_hi, "group invariant violated"
        return Interval(self.max_lo, self.min_hi)

    @property
    def stabbing_point(self) -> float:
        common = self.common
        assert common is not None, "empty group has no stabbing point"
        return common.hi

    def would_remain_stabbed(self, interval: Interval) -> bool:
        """True if adding ``interval`` keeps the common intersection nonempty."""
        if not self._items:
            return True
        # Inlined overlap check against [max lo, min hi]; this runs once per
        # existing group on every insertion, so it avoids building objects.
        return self.max_lo <= interval.hi and interval.lo <= self.min_hi


def _remove_endpoint(endpoints: array[float], value: float) -> None:
    """Delete one copy of ``value`` from the sorted ``endpoints``; raises
    ``ValueError`` if it holds none."""
    idx = bisect_left(endpoints, value)
    if idx == len(endpoints) or endpoints[idx] != value:
        raise ValueError(f"endpoint not found: {value!r}")
    del endpoints[idx]


class DynamicStabbingPartitionBase(Generic[T]):
    """Common state and listener plumbing for both maintenance strategies."""

    __slots__ = ("_interval_of", "_listeners", "reconstruction_count", "update_count")

    _groups: List[Any]  # the live groups, owned by the maintainer

    def __init__(self, interval_of: Callable[[T], Interval] = identity_interval):
        self._interval_of = interval_of
        self._listeners: List[PartitionListener[T]] = []
        # Statistics exposed for the Figure 11 maintenance-cost benchmark.
        self.reconstruction_count = 0
        self.update_count = 0

    # -- listener plumbing ------------------------------------------------

    def add_listener(self, listener: PartitionListener[T]) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: PartitionListener[T]) -> None:
        self._listeners.remove(listener)

    def _notify_group_created(self, group: StabbingGroupView[T]) -> None:
        for listener in self._listeners:
            listener.on_group_created(group)

    def _notify_group_destroyed(self, group: StabbingGroupView[T]) -> None:
        for listener in self._listeners:
            listener.on_group_destroyed(group)

    def _notify_item_added(self, group: StabbingGroupView[T], item: T) -> None:
        for listener in self._listeners:
            listener.on_item_added(group, item)

    def _notify_item_removed(self, group: StabbingGroupView[T], item: T) -> None:
        for listener in self._listeners:
            listener.on_item_removed(group, item)

    def _notify_rebuilt(self) -> None:
        for listener in self._listeners:
            listener.on_rebuilt(self)

    def _notify_rebuild_started(self) -> None:
        """Optional pre-reconstruction hook, fired just before a rebuild
        recomputes the canonical partition.  Dispatched by ``getattr`` so
        it stays outside the :class:`PartitionListener` protocol: existing
        listeners (the SSI layer) only care about the post-state, while
        the observability layer pairs this with ``on_rebuilt`` to time the
        reconstruction stage."""
        for listener in self._listeners:
            hook = getattr(listener, "on_rebuild_started", None)
            if hook is not None:
                hook(self)

    # -- interface to implement --------------------------------------------

    def insert(self, item: T) -> None:
        raise NotImplementedError

    def delete(self, item: T) -> None:
        raise NotImplementedError

    @property
    def groups(self) -> Iterable[StabbingGroupView[T]]:
        raise NotImplementedError

    def iter_groups(self) -> Iterator[StabbingGroupView[T]]:
        """The groups without the copy ``groups`` makes; the partition must
        not be updated while the iterator is in use."""
        return iter(self._groups)

    @property
    def interval_of(self) -> Callable[[T], Interval]:
        return self._interval_of

    def __len__(self) -> int:
        """Number of groups currently maintained (|P|)."""
        return len(self._groups)

    def total_items(self) -> int:
        return sum(group.size for group in self.groups)

    def validate(self) -> None:
        """Assert every group is stabbed by its stabbing point (tests only)."""
        for group in self.groups:
            assert group.size > 0, "empty group retained"
            point = group.stabbing_point
            for item in group:
                assert self._interval_of(item).contains(point), (
                    f"{self._interval_of(item)} not stabbed by {point}"
                )
