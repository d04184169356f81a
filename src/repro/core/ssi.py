"""The stabbing set index (SSI) framework (Sections 2.1 and 2.2).

An SSI derives one interval per continuous query, maintains a stabbing
partition of those intervals, and attaches a *per-group data structure* to
every group: "SSI is completely agnostic about the underlying data structure
used" --- a pair of sorted endpoint sequences for band joins (Section 3.1,
the default), the members' endpoint columns for select-joins (Section 3.2),
an R-tree per box group.

This module is the one keeper of those structures, whoever owns the groups.
:class:`GroupStructures` is the bookkeeping every index shares: one
structure per live group, patched as members come and go, and the cached
dense group table the batch kernels read.  :class:`StabbingSetIndex`
listens to a dynamic stabbing partition (of intervals or boxes), adds and
removes members as the partition evolves and rebuilds everything after a
reconstruction stage.  :class:`HotspotIndex` is Section 2.2's SSI on the
hotspots: the same bookkeeping over a
:class:`~repro.core.hotspot_tracker.HotspotTracker`'s hotspot groups, plus
the scattered remainder the caller indexes traditionally; it has no
partition, so no reconstruction either.  The join
processors iterate ``(stabbing_point, structure)`` pairs and never touch
partition or tracker internals.

A lazy or hot group is its members' ``EndpointOrders``, the default
structure, read in place; a group without orders (a treap) gets a copy.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.partition_base import (
    DynamicGroup,
    DynamicStabbingPartitionBase,
    StabbingGroupView,
    T,
)
from repro.dstruct.endpoint_orders import EndpointOrders

S = TypeVar("S")


def _ignore(item: Any) -> None:
    pass


def _endpoint_orders(interval_of: Callable[[Any], Any]) -> Any:
    """The default per-group structure: the members' two endpoint orders."""

    def add(orders: EndpointOrders, item: Any) -> None:
        orders.add(item, interval_of(item))

    def make(members: Iterable[Any]) -> EndpointOrders:
        orders: EndpointOrders = EndpointOrders()
        for item in members:
            add(orders, item)
        return orders

    return make, add, lambda orders, item: orders.remove(item, interval_of(item))


class GroupStructures(Generic[T, S]):
    """One structure per live group, synchronized by the subclass's
    listener callbacks, and the dense group table over them.

    Parameters
    ----------
    interval_of:
        The interval (or box) of an item, for the default structure.
    make_structure, add_item, remove_item:
        Build a group's structure from its members (a promotion or a
        rebuild attaches whole groups, so a structure that sorts can sort
        once), and maintain it as members join or leave the group.
        Omitted, it is the members'
        :class:`~repro.dstruct.endpoint_orders.EndpointOrders`: the
        group's own ``orders`` when it has them, else a copy.
    """

    def __init__(
        self,
        interval_of: Callable[[T], Any],
        make_structure: Optional[Callable[[Iterable[T]], S]],
        add_item: Optional[Callable[[S, T], None]],
        remove_item: Optional[Callable[[S, T], None]],
    ) -> None:
        self._in_place = make_structure is None  # a group's orders serve
        if make_structure is None:
            make_structure, add_item, remove_item = _endpoint_orders(interval_of)
        assert make_structure and add_item and remove_item
        self._make = make_structure
        self._add = add_item
        self._remove = remove_item
        # id(group) -> (group, structure), in the order the groups arrived.
        self._groups: Dict[int, Tuple[Any, S]] = {}
        self._snapshot: Optional[Tuple[List[Any], List[S]]] = None
        # id(group) -> the stabbing point the snapshot holds for it.
        self._snapshot_points: Dict[int, Any] = {}
        self.snapshot_builds = 0

    def _attach(self, group: Any) -> None:
        """Give ``group`` its structure: its own orders when they serve,
        else a new structure holding its members."""
        structure = getattr(group, "orders", None) if self._in_place else None
        if structure is None:
            structure = self._make(group)
        self._groups[id(group)] = (group, structure)
        self._snapshot = None

    def _detach(self, group: Any) -> None:
        del self._groups[id(group)]
        self._snapshot = None

    # A group's stabbing point only ever changes through the listener
    # callbacks (membership change, group creation/destruction, promotion,
    # demotion, or a full rebuild).  The dense snapshot holds the live
    # structures, so a member change alone leaves it valid: it is dropped
    # when a group is attached or detached, and when a patched group's
    # point is no longer the one the snapshot holds.

    def _patch(self, changes: Iterable[Tuple[Any, T]], write: Callable[[S, T], None]) -> None:
        """Apply member changes to their groups' structures; a structure
        that is the group's own orders already holds them."""
        groups = self._groups
        for group, item in changes:
            structure = groups[id(group)][1]
            if structure is not getattr(group, "orders", None):
                write(structure, item)
        if self._snapshot is not None:
            held = self._snapshot_points
            for group, __ in changes:
                # An emptied group is detached next; its point is gone.
                if not group.size or group.stabbing_point != held[id(group)]:
                    self._snapshot = None
                    break

    def live_groups(self) -> Iterable[Any]:
        """The groups that carry a structure: the partition's groups, or
        the tracker's hotspot groups."""
        raise NotImplementedError

    def structure_of(self, group: Any) -> S:
        return self._groups[id(group)][1]

    def group_table(self) -> Tuple[List[Any], List[S]]:
        """Dense snapshot of the live groups: parallel lists of stabbing
        points and per-group structures.

        Built lazily and cached.  The cache is dropped, and the next call
        publishes new lists, only when a group is attached or detached
        (created, destroyed, promoted, demoted, or a rebuild) or a member
        change moves a group's stabbing point; a member change that leaves
        every point in place keeps it, since it holds the live structures.
        Callers must not mutate the returned lists.
        """
        snapshot = self._snapshot
        if snapshot is None:
            groups = self._groups
            held = {key: group.stabbing_point for key, (group, __) in groups.items()}
            snapshot = (list(held.values()), [structure for __, structure in groups.values()])
            self._snapshot = snapshot
            self._snapshot_points = held
            self.snapshot_builds += 1
        return snapshot

    def groups(self) -> Iterator[Tuple[Any, S]]:
        """Iterate (stabbing point, per-group structure) pairs.

        This is the loop every SSI join processor runs per incoming tuple;
        its length is the stabbing number tau, not the number of queries.
        """
        points, structures = self.group_table()
        return zip(points, structures)

    def group_count(self) -> int:
        return len(self._groups)

    def _check_snapshot(self) -> None:
        """Assert a cached group table still holds every live group's
        structure and current stabbing point, in order."""
        if self._snapshot is None:
            return
        points, structures = self._snapshot
        live = list(self._groups.values())
        assert points == [group.stabbing_point for group, __ in live], "group table points drifted"
        assert len(structures) == len(live) and all(
            structure is held for structure, (__, held) in zip(structures, live)
        ), "group table structures drifted"


class StabbingSetIndex(GroupStructures[T, S]):
    """Per-group structures synchronized with a dynamic stabbing partition.

    Parameters
    ----------
    partition:
        The dynamic stabbing partition over the continuous queries (a
        :class:`~repro.core.lazy_partition.LazyStabbingPartition`,
        :class:`~repro.core.refined_partition.RefinedStabbingPartition` or
        :class:`~repro.core.multidim.DynamicBoxPartition`).
    make_structure, add_item, remove_item:
        As for :class:`GroupStructures`.
    """

    def __init__(
        self,
        partition: DynamicStabbingPartitionBase[T],
        *,
        make_structure: Optional[Callable[[Iterable[T]], S]] = None,
        add_item: Optional[Callable[[S, T], None]] = None,
        remove_item: Optional[Callable[[S, T], None]] = None,
    ):
        super().__init__(partition.interval_of, make_structure, add_item, remove_item)
        self._partition = partition
        self.rebuild_count = 0
        partition.add_listener(self)
        self._bootstrap()

    def _bootstrap(self) -> None:
        self._groups = {}
        for group in self.live_groups():
            self._attach(group)
        self._snapshot = None

    # -- partition listener callbacks ---------------------------------------

    def on_group_created(self, group: StabbingGroupView[T]) -> None:
        self._attach(group)  # still empty: its first member follows

    def on_group_destroyed(self, group: StabbingGroupView[T]) -> None:
        self._detach(group)

    def on_item_added(self, group: StabbingGroupView[T], item: T) -> None:
        self._patch(((group, item),), self._add)

    def on_item_removed(self, group: StabbingGroupView[T], item: T) -> None:
        self._patch(((group, item),), self._remove)

    def on_rebuilt(self, partition: DynamicStabbingPartitionBase[T]) -> None:
        self.rebuild_count += 1
        self._bootstrap()

    # -- query-side API ----------------------------------------------------

    @property
    def partition(self) -> DynamicStabbingPartitionBase[T]:
        return self._partition

    def live_groups(self) -> Iterable[Any]:
        return self._partition.groups

    def insert(self, *items: T) -> None:
        """Insert continuous queries (delegates to the partition)."""
        for item in items:
            self._partition.insert(item)

    def delete(self, *items: T) -> None:
        """Delete continuous queries (delegates to the partition)."""
        for item in items:
            self._partition.delete(item)

    def __len__(self) -> int:
        return self._partition.total_items()

    def validate(self, check: Callable[[Any, S], None]) -> None:
        """Assert the partition's invariants, one structure per live group,
        and ``check(group, structure)`` for every group (tests, fuzz)."""
        self._partition.validate()
        groups = self.live_groups()
        assert self._groups.keys() == {id(group) for group in groups}, "structures drifted"
        self._check_snapshot()
        for group in groups:
            check(group, self._groups[id(group)][1])


class HotspotIndex(GroupStructures[T, S]):
    """Per-group structures over a :class:`HotspotTracker`'s hotspot groups.

    A promotion attaches the group's structure (its own orders by
    default), a demotion drops it, and items that join or leave a hot group
    patch a structure that is not the group's orders; ``groups()``,
    ``group_table()`` and ``structure_of()`` read as over a partition, in
    promotion order.  :attr:`scattered` maps ``id(item)`` to each item in
    no hot group, in the order they became scattered; ``scatter(item)`` and
    ``gather(item)`` fire as an item enters or leaves it, so the caller can
    keep a traditional index of the scattered items.

    The tracker must be fresh.  :meth:`insert` and :meth:`delete` make one
    tracker call each, however many items they take.
    """

    def __init__(
        self,
        tracker: HotspotTracker[T],
        *,
        make_structure: Optional[Callable[[Iterable[T]], S]] = None,
        add_item: Optional[Callable[[S, T], None]] = None,
        remove_item: Optional[Callable[[S, T], None]] = None,
        scatter: Callable[[T], None] = _ignore,
        gather: Callable[[T], None] = _ignore,
    ):
        if len(tracker):
            raise ValueError("a HotspotIndex needs a fresh tracker")
        super().__init__(tracker.interval_of, make_structure, add_item, remove_item)
        self.tracker = tracker
        self.scattered: Dict[int, T] = {}
        self._scatter = scatter
        self._gather = gather
        tracker.add_listener(self)

    # -- tracker listener callbacks ----------------------------------------

    def on_promoted(self, group: DynamicGroup[T]) -> None:
        self._attach(group)
        for item in group:
            if self.scattered.pop(id(item), None) is not None:
                self._gather(item)

    def on_demoted(self, group: DynamicGroup[T]) -> None:
        self._detach(group)
        for item in group:
            self._scatter_one(item)

    def on_hot_items_added(self, added: Sequence[Tuple[DynamicGroup[T], T]]) -> None:
        self._patch(added, self._add)

    def on_hot_items_removed(self, removed: Sequence[Tuple[DynamicGroup[T], T]]) -> None:
        self._patch(removed, self._remove)

    def _scatter_one(self, item: T) -> None:
        # A new item that a demotion in its own insert call scattered
        # keeps the place that demotion gave it.
        if id(item) not in self.scattered:
            self.scattered[id(item)] = item
            self._scatter(item)

    # -- updates ---------------------------------------------------------------

    def insert(self, *items: T) -> None:
        """Insert ``items`` with one tracker call; each is then hot or
        scattered."""
        tracker = self.tracker
        tracker.insert(*items)
        for item in items:
            if not tracker.is_hotspot_item(item):
                self._scatter_one(item)

    def delete(self, *items: T) -> None:
        """Delete ``items`` with one tracker call."""
        for item in items:
            if self.scattered.pop(id(item), None) is not None:
                self._gather(item)
        self.tracker.delete(*items)

    def live_groups(self) -> Iterable[Any]:
        return self.tracker.hotspot_groups

    def __len__(self) -> int:
        return len(self.tracker)

    def validate(self, check: Callable[[Any, S], None]) -> None:
        """Assert the tracker's invariants, that :attr:`scattered` is the
        tracker's scattered items, one structure per hot group in promotion
        order, and ``check(group, structure)`` for each (tests, fuzz)."""
        tracker = self.tracker
        tracker.validate()
        scattered = {id(item) for group in tracker.scattered.groups for item in group}
        assert self.scattered.keys() == scattered, "scattered items drifted"
        hot = self.live_groups()
        assert list(self._groups) == [id(group) for group in hot], "structures drifted"
        self._check_snapshot()
        for group in hot:
            check(group, self._groups[id(group)][1])
