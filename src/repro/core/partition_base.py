"""Shared machinery for dynamic stabbing-partition maintainers.

Both maintenance strategies of Section 2.3 (the lazy strategy of Lemma 3 and
the refined algorithm of Appendix B) expose the same interface: insert/delete
items carrying intervals, enumerate the current groups, and notify listeners
when group membership changes so that higher layers (the SSI per-group
structures, the hotspot tracker) can stay synchronized.

Items are arbitrary objects mapped to intervals by an ``interval_of``
function; they are identified by object identity, so two distinct continuous
queries may carry equal ranges.  A maintainer keeps ``id(item)`` -> group
(``_group_of``) and rejects an item it holds; a :class:`DynamicGroup` is
its members' two endpoint orders and their default SSI structure.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Any, Callable, Dict, Generic, Iterable, Iterator, List, Optional, Protocol, TypeVar,
)

from repro.core.intervals import Interval
from repro.core.stabbing import identity_interval
from repro.dstruct.endpoint_orders import EndpointOrders

T = TypeVar("T")


class StabbingGroupView(Protocol[T]):
    """Structural interface of a maintained stabbing group.

    Every maintainer exposes groups through this shape — the
    :class:`DynamicGroup` here (an ``EndpointOrders``, read in place by
    the SSI layer through its ``orders``), the treap-backed
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

    ``on_group_created`` announces a group while it is still empty; its
    first member follows through ``on_item_added``.  ``on_rebuilt``
    replaces the per-item callbacks during a reconstruction stage:
    listeners should drop all per-group state and rebuild from the
    partition's current groups.
    """

    def on_group_created(self, group: "StabbingGroupView[T]") -> None: ...

    def on_group_destroyed(self, group: "StabbingGroupView[T]") -> None: ...

    def on_item_added(self, group: "StabbingGroupView[T]", item: T) -> None: ...

    def on_item_removed(self, group: "StabbingGroupView[T]", item: T) -> None: ...

    def on_rebuilt(self, partition: "DynamicStabbingPartitionBase[T]") -> None: ...


class DynamicGroup(Generic[T]):
    """A mutable stabbing group: its members' two endpoint orders.

    The members live only in an :class:`EndpointOrders` (Section 3.1's
    I^l_j and I^r_j; also the group's SSI structure) and iterate in
    ascending-lo order.  The common intersection [largest lo, smallest hi]
    is read at the tail of each order, so a deletion that *widens* it finds
    the new extreme there: the "more careful implementation" the paper
    recommends for the insertion refinement.  The owning maintainer, not
    the group, rejects an item already held.
    """

    __slots__ = ("orders", "size", "_interval_of", "max_lo", "min_hi")

    def __init__(self, interval_of: Callable[[T], Interval]):
        self.orders: EndpointOrders[T] = EndpointOrders()
        self._interval_of = interval_of
        # len(orders) and the intersection's ends as plain attributes: the
        # first-fit loops of the tracker and the lazy partition test every
        # group against a new interval with two attribute reads, inline.
        self.size = 0
        self.max_lo = float("-inf")
        self.min_hi = float("inf")

    def add(self, item: T) -> None:
        interval = self._interval_of(item)
        self.orders.add(item, interval)
        self.size += 1
        if interval.lo > self.max_lo:
            self.max_lo = interval.lo
        if interval.hi < self.min_hi:
            self.min_hi = interval.hi

    def remove(self, item: T) -> None:
        """Remove ``item``; raises ``ValueError``, changing nothing, if the
        group does not hold it under its current interval."""
        orders = self.orders
        orders.remove(item, self._interval_of(item))
        self.size -= 1
        self.max_lo = orders.lo_keys[-1] if self.size else float("-inf")
        self.min_hi = -orders.neg_hi_keys[-1] if self.size else float("inf")

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[T]:
        return iter(self.orders.by_lo)

    @property
    def items(self) -> List[T]:
        return list(self.orders.by_lo)

    @property
    def common(self) -> Optional[Interval]:
        """Common intersection of all members (None iff empty group)."""
        if not self.size:
            return None
        assert self.max_lo <= self.min_hi, "group invariant violated"
        return Interval(self.max_lo, self.min_hi)

    @property
    def stabbing_point(self) -> float:
        """The common intersection's right end, read from the cached
        extremes (no ``Interval`` is built)."""
        assert self.size, "empty group has no stabbing point"
        assert self.max_lo <= self.min_hi, "group invariant violated"
        return self.min_hi

    def would_remain_stabbed(self, interval: Interval) -> bool:
        """True if adding ``interval`` keeps the common intersection
        nonempty (an empty group's [-inf, inf] meets every interval)."""
        return self.max_lo <= interval.hi and interval.lo <= self.min_hi

    def check(self) -> None:
        """Assert the orders are sound and ``size`` and the cached extremes
        agree with them (tests, fuzz)."""
        orders = self.orders
        orders.check(orders.by_lo, self._interval_of)
        assert self.size == len(orders), f"size drift: {self.size} != {len(orders)}"
        ends = Interval(orders.lo_keys[-1], -orders.neg_hi_keys[-1]) if orders else None
        assert self.common == ends, "cached extremes drifted"


class DynamicStabbingPartitionBase(Generic[T]):
    """Common state and listener plumbing for both maintenance strategies."""

    __slots__ = ("_interval_of", "_listeners", "reconstruction_count", "update_count")

    # Owned by the maintainer: the live groups, and id(item) -> its group.
    _groups: List[Any]
    _group_of: Dict[int, Any]

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

    def group_of(self, item: T) -> Any:
        return self._group_of[id(item)]

    def __contains__(self, item: T) -> bool:
        return id(item) in self._group_of

    def holds_any(self, keys: AbstractSet[int]) -> bool:
        """True if an item whose ``id`` is in ``keys`` is held."""
        return not self._group_of.keys().isdisjoint(keys)

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
        return len(self._group_of)

    def validate(self) -> None:
        """Assert :func:`check_groups` on the groups (tests, fuzz)."""
        check_groups(self._groups, self._group_of, self._interval_of)


def check_groups(
    groups: Iterable[Any], group_of: Dict[int, Any], interval_of: Callable[[Any], Any]
) -> None:
    """Assert every group is nonempty and stabbed by its stabbing point,
    and that the groups hold exactly the items ``group_of`` (``id(item)``
    to group) sends to them."""
    held = 0
    for group in groups:
        assert group.size > 0, "empty group retained"
        point = group.stabbing_point
        for item in group:
            assert interval_of(item).contains(point), f"{interval_of(item)} not stabbed by {point}"
            assert group_of.get(id(item)) is group, "stale group_of entry"
            held += 1
    assert held == len(group_of), f"group membership ({held}) != group_of ({len(group_of)})"
