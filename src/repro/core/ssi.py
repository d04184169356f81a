"""The stabbing set index (SSI) framework (Section 2.1).

An SSI derives one interval per continuous query, maintains a stabbing
partition of those intervals, and attaches a *per-group data structure* to
every group: "SSI is completely agnostic about the underlying data structure
used" --- a pair of sorted endpoint sequences for band joins (Section 3.1),
the members' endpoint columns for select-joins (Section 3.2).

This class supplies the agnostic plumbing: it listens to a dynamic stabbing
partition and keeps exactly one user-built structure per live group, adding
and removing member queries as the partition evolves and rebuilding
everything after a reconstruction stage.  The join processors iterate
``(stabbing_point, structure)`` pairs and never touch partition internals.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.core.partition_base import (
    DynamicStabbingPartitionBase,
    StabbingGroupView,
    T,
)

S = TypeVar("S")


class StabbingSetIndex(Generic[T, S]):
    """Per-group structures synchronized with a dynamic stabbing partition.

    Parameters
    ----------
    partition:
        The dynamic stabbing partition over the continuous queries (any of
        :class:`~repro.core.lazy_partition.LazyStabbingPartition` or
        :class:`~repro.core.refined_partition.RefinedStabbingPartition`).
    make_structure:
        Builds an empty per-group structure.
    add_item / remove_item:
        Maintain a structure as members join or leave its group.
    """

    def __init__(
        self,
        partition: DynamicStabbingPartitionBase[T],
        *,
        make_structure: Callable[[], S],
        add_item: Callable[[S, T], None],
        remove_item: Callable[[S, T], None],
    ):
        self._partition = partition
        self._make = make_structure
        self._add = add_item
        self._remove = remove_item
        self._structures: Dict[int, S] = {}
        self._group_refs: Dict[int, StabbingGroupView[T]] = {}
        self._snapshot: Optional[Tuple[List[float], List[S]]] = None
        partition.add_listener(self)
        self.rebuild_count = 0
        self.snapshot_builds = 0
        self._bootstrap()

    def _bootstrap(self) -> None:
        self._structures = {}
        self._group_refs = {}
        self._snapshot = None
        for group in self._partition.groups:
            structure = self._make()
            for item in group:
                self._add(structure, item)
            self._structures[id(group)] = structure
            self._group_refs[id(group)] = group

    # -- partition listener callbacks ---------------------------------------
    #
    # A group's stabbing point only ever changes through these callbacks
    # (membership change, group creation/destruction, or a full rebuild), so
    # invalidating the dense snapshot here is sufficient for it never to go
    # stale.

    def on_group_created(self, group: StabbingGroupView[T]) -> None:
        self._structures[id(group)] = self._make()
        self._group_refs[id(group)] = group
        self._snapshot = None

    def on_group_destroyed(self, group: StabbingGroupView[T]) -> None:
        self._structures.pop(id(group), None)
        self._group_refs.pop(id(group), None)
        self._snapshot = None

    def on_item_added(self, group: StabbingGroupView[T], item: T) -> None:
        self._add(self._structures[id(group)], item)
        self._snapshot = None

    def on_item_removed(self, group: StabbingGroupView[T], item: T) -> None:
        self._remove(self._structures[id(group)], item)
        self._snapshot = None

    def on_rebuilt(self, partition: DynamicStabbingPartitionBase[T]) -> None:
        self.rebuild_count += 1
        self._bootstrap()

    # -- query-side API ----------------------------------------------------

    @property
    def partition(self) -> DynamicStabbingPartitionBase[T]:
        return self._partition

    def insert(self, item: T) -> None:
        """Insert a continuous query (delegates to the partition)."""
        self._partition.insert(item)

    def delete(self, item: T) -> None:
        """Delete a continuous query (delegates to the partition)."""
        self._partition.delete(item)

    def structure_of(self, group: Any) -> S:
        return self._structures[id(group)]

    def group_table(self) -> Tuple[List[float], List[S]]:
        """Dense snapshot of the live groups: parallel lists of stabbing
        points and per-group structures.

        Built lazily and cached; every partition listener callback
        invalidates it, so the cache is patched exactly as often as the
        partition actually changes rather than per probe.  Callers must not
        mutate the returned lists.
        """
        snapshot = self._snapshot
        if snapshot is None:
            points: List[float] = []
            structures: List[S] = []
            for key, group in self._group_refs.items():
                points.append(group.stabbing_point)
                structures.append(self._structures[key])
            snapshot = (points, structures)
            self._snapshot = snapshot
            self.snapshot_builds += 1
        return snapshot

    def groups(self) -> Iterator[Tuple[float, S]]:
        """Iterate (stabbing point, per-group structure) pairs.

        This is the loop every SSI join processor runs per incoming tuple;
        its length is the stabbing number tau, not the number of queries.
        """
        points, structures = self.group_table()
        return zip(points, structures)

    def group_count(self) -> int:
        return len(self._structures)

    def __len__(self) -> int:
        return self._partition.total_items()
