"""Multi-dimensional stabbing partitions (Section 6 future work).

The paper closes with: "it would be interesting to extend the idea of
clustering by stabbing partition to multidimensional spaces, so that we can
handle multi-attribute selection conditions."  This module does that for
axis-aligned boxes:

* a :class:`Box` value type over d dimensions;
* a greedy *sweep heuristic* for computing a stabbing partition of boxes
  (groups with nonempty common box intersection).  Unlike the 1-D case the
  minimum piercing problem for boxes is NP-hard for d >= 2, so no
  optimality claim is made --- the sweep orders boxes by their first-axis
  left endpoints and otherwise mirrors Lemma 1; its output is always a
  *valid* stabbing partition and coincides with the canonical one for
  d = 1;
* :class:`DynamicBoxPartition`, the lazy maintenance strategy of Section
  2.3 transplanted to boxes (insert into the first compatible group or as a
  singleton, rebuild with the sweep when the group count drifts past
  ``(1 + eps)`` times the sweep's size).  It notifies listeners as the 1-D
  partitions do, so a :class:`~repro.core.ssi.StabbingSetIndex` keeps
  per-group structures over boxes too.

Section 3-style group processing for multi-attribute subscriptions lives in
:mod:`repro.operators.multi_attribute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.core.intervals import Interval
from repro.core.partition_base import DynamicStabbingPartitionBase, T


@dataclass(frozen=True, slots=True)
class Box:
    """A closed axis-aligned box: ``lo[i] <= x[i] <= hi[i]`` per dimension."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal dimension")
        if not self.lo:
            raise ValueError("boxes need at least one dimension")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError(f"invalid box: {self!r}")

    @property
    def dimensions(self) -> int:
        return len(self.lo)

    def contains(self, point: Sequence[float]) -> bool:
        if len(point) != len(self.lo):
            raise ValueError("point dimension mismatch")
        return all(a <= x <= b for a, x, b in zip(self.lo, point, self.hi))

    def intersect(self, other: "Box") -> Optional["Box"]:
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def overlaps(self, other: "Box") -> bool:
        return all(
            a <= d and c <= b
            for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi)
        )

    @property
    def center(self) -> Tuple[float, ...]:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    @staticmethod
    def from_intervals(*ranges: "Interval") -> "Box":
        """Build a box from per-dimension Interval objects."""
        return Box(tuple(r.lo for r in ranges), tuple(r.hi for r in ranges))


def identity_box(item: Box) -> Box:
    return item


class BoxGroup(Iterable[T]):
    """A mutable group of box-carrying items with a maintained common box.

    Unlike the 1-D :class:`~repro.core.partition_base.DynamicGroup`, the
    common box cannot cheaply *widen* under deletion, so it is recomputed
    from the members when a removal touches the boundary.  Insertions stay
    O(d).
    """

    __slots__ = ("_items", "_common", "_box_of")

    def __init__(self, box_of: Callable[[T], Box]):
        self._items: Dict[int, T] = {}
        self._common: Optional[Box] = None
        self._box_of = box_of

    def add(self, item: T) -> None:
        key = id(item)
        if key in self._items:
            raise ValueError("item already present in group")
        box = self._box_of(item)
        if self._common is None:
            self._common = box
        else:
            narrowed = self._common.intersect(box)
            assert narrowed is not None, "group invariant violated"
            self._common = narrowed
        self._items[key] = item

    def remove(self, item: T) -> None:
        del self._items[id(item)]
        self._recompute()

    def _recompute(self) -> None:
        self._common = None
        for item in self._items.values():
            box = self._box_of(item)
            self._common = box if self._common is None else self._common.intersect(box)
            assert self._common is not None, "group invariant violated"

    def would_remain_stabbed(self, box: Box) -> bool:
        return self._common is None or self._common.overlaps(box)

    @property
    def common(self) -> Optional[Box]:
        return self._common

    @property
    def stabbing_point(self) -> Tuple[float, ...]:
        assert self._common is not None, "empty group has no stabbing point"
        return self._common.center

    @property
    def size(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[T]:
        return list(self._items.values())

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items.values())

    def __contains__(self, item: T) -> bool:
        return id(item) in self._items


def sweep_box_partition(
    items: Iterable[T], box_of: Callable[[T], Box] = identity_box
) -> List[List[T]]:
    """Greedy sweep heuristic: a valid stabbing partition of boxes.

    Items are scanned in increasing first-axis left endpoint; each item
    joins the current group while the common intersection stays nonempty.
    For d = 1 this is exactly the canonical (optimal) partition.
    """
    ordered = sorted(items, key=lambda item: box_of(item).lo[0])
    groups: List[List[T]] = []
    current: List[T] = []
    common: Optional[Box] = None
    for item in ordered:
        box = box_of(item)
        if common is None:
            current = [item]
            common = box
            continue
        narrowed = common.intersect(box)
        if narrowed is None:
            groups.append(current)
            current = [item]
            common = box
        else:
            current.append(item)
            common = narrowed
    if current:
        groups.append(current)
    return groups


class DynamicBoxPartition(DynamicStabbingPartitionBase[T]):
    """Lazy (Section 2.3 style) maintenance of a box stabbing partition.

    The ``(1 + eps)`` budget is measured against the sweep heuristic's
    partition size (the best efficiently-computable reference; minimum box
    piercing is NP-hard in d >= 2).
    """

    def __init__(
        self,
        items: Optional[List[T]] = None,
        *,
        epsilon: float = 1.0,
        box_of: Callable[[T], Box] = identity_box,
    ):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        # A box answers ``contains(point)`` as an interval does, which is
        # all the base class and the listeners ask of ``interval_of``.
        super().__init__(cast("Callable[[T], Interval]", box_of))
        self._epsilon = epsilon
        self._box_of = box_of
        self._groups: List[BoxGroup[T]] = []
        self._group_of: Dict[int, BoxGroup[T]] = {}
        self._tau0 = 0
        self._deletions = 0
        if items:
            self._rebuild(list(items))
            self.reconstruction_count = 0

    @property
    def groups(self) -> List[BoxGroup[T]]:
        return list(self._groups)

    def insert(self, item: T) -> None:
        if id(item) in self._group_of:
            raise ValueError("item already present")
        box = self._box_of(item)
        target: Optional[BoxGroup[T]] = None
        for group in self._groups:
            if group.would_remain_stabbed(box):
                target = group
                break
        if target is None:
            target = BoxGroup(self._box_of)
            self._groups.append(target)
            self._notify_group_created(target)
        target.add(item)
        self._group_of[id(item)] = target
        self._notify_item_added(target, item)
        self._after_update()

    def delete(self, item: T) -> None:
        group = self._group_of.pop(id(item))
        group.remove(item)
        self._notify_item_removed(group, item)
        if group.size == 0:
            self._groups.remove(group)
            self._notify_group_destroyed(group)
        self._deletions += 1
        self._after_update()

    def _after_update(self) -> None:
        self.update_count += 1
        budget = (1.0 + self._epsilon) * max(self._tau0 - self._deletions, 0)
        if len(self._groups) > budget:
            items: List[T] = []
            for group in self._groups:
                items.extend(group)
            self._rebuild(items)

    def _rebuild(self, items: List[T]) -> None:
        self._notify_rebuild_started()
        self._groups = []
        self._group_of = {}
        for members in sweep_box_partition(items, self._box_of):
            group: BoxGroup[T] = BoxGroup(self._box_of)
            for item in members:
                group.add(item)
                self._group_of[id(item)] = group
            self._groups.append(group)
        self._tau0 = len(self._groups)
        self._deletions = 0
        self.reconstruction_count += 1
        self._notify_rebuilt()
