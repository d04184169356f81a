"""Canonical stabbing partitions (Section 2.1, Lemma 1).

A *stabbing partition* of a set of intervals ``I`` splits it into groups
``I_1 .. I_tau`` such that each group has a nonempty common intersection
(equivalently, a single point that stabs every member).  The greedy
left-endpoint sweep below produces the *canonical* partition, which is
optimal: no stabbing partition of ``I`` has fewer groups than ``tau(I)``.

The partition is the static foundation everything else builds on: the lazy
and refined dynamic maintainers reconstruct it periodically, the hotspot
tracker classifies its groups by size, and SSI-HIST builds one histogram per
canonical group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, List, Sequence, TypeVar

from repro.core.intervals import Interval, common_intersection

T = TypeVar("T")


def identity_interval(item: Interval) -> Interval:
    """Default ``interval_of``: items are themselves intervals."""
    return item


@dataclass(slots=True)
class StabbingGroup(Generic[T]):
    """One group of a stabbing partition.

    ``stabbing_point`` is always the right endpoint of the group's common
    intersection; the greedy sweep closes a group exactly when the next
    interval starts past that point, so this choice both witnesses the
    partition and matches the reconstruction stage of Appendix B (which emits
    ``r(common intersection)`` as the stabbing point).
    """

    items: List[T]
    common: Interval

    @property
    def stabbing_point(self) -> float:
        return self.common.hi

    @property
    def size(self) -> int:
        return len(self.items)


@dataclass(slots=True)
class StabbingPartition(Generic[T]):
    """A list of stabbing groups plus the key function that produced them."""

    groups: List[StabbingGroup[T]]
    interval_of: Callable[[T], Interval] = field(default=identity_interval)

    @property
    def size(self) -> int:
        """The stabbing number tau of this partition."""
        return len(self.groups)

    @property
    def stabbing_set(self) -> List[float]:
        return [group.stabbing_point for group in self.groups]

    def total_items(self) -> int:
        return sum(group.size for group in self.groups)

    def coverage_of_top(self, k: int) -> float:
        """Fraction of all items covered by the k largest groups.

        This is the quantity plotted in Figure 2 for Zipf-distributed group
        sizes, and what motivates restricting SSI to hotspots.
        """
        total = self.total_items()
        if total == 0:
            return 0.0
        sizes = sorted((group.size for group in self.groups), reverse=True)
        return sum(sizes[:k]) / total

    def hotspots(self, alpha: float) -> List[StabbingGroup[T]]:
        """Groups holding at least an ``alpha`` fraction of all items."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        threshold = alpha * self.total_items()
        return [group for group in self.groups if group.size >= threshold]

    def validate(self) -> None:
        """Assert every group is genuinely stabbed by its stabbing point."""
        for group in self.groups:
            assert group.items, "empty stabbing group"
            common = common_intersection(self.interval_of(item) for item in group.items)
            assert common is not None, "group has no common intersection"
            assert common == group.common, "stale common intersection"
            for item in group.items:
                assert self.interval_of(item).contains(group.stabbing_point)


def canonical_stabbing_partition(
    items: Iterable[T],
    interval_of: Callable[[T], Interval] = identity_interval,
) -> StabbingPartition[T]:
    """Compute the canonical (optimal) stabbing partition by greedy sweep.

    Scans items in increasing order of left endpoint, extending the current
    group while the common intersection stays nonempty and closing it
    otherwise (Lemma 1; O(n log n) dominated by the sort).
    """
    ordered = sorted(items, key=lambda item: interval_of(item).lo)
    groups: List[StabbingGroup[T]] = []
    current: List[T] = []
    common: Interval | None = None
    for item in ordered:
        interval = interval_of(item)
        if common is None:
            current = [item]
            common = interval
            continue
        narrowed = common.intersect(interval)
        if narrowed is None:
            groups.append(StabbingGroup(current, common))
            current = [item]
            common = interval
        else:
            current.append(item)
            common = narrowed
    if common is not None:
        groups.append(StabbingGroup(current, common))
    return StabbingPartition(groups, interval_of)


def stabbing_number(
    items: Iterable[T],
    interval_of: Callable[[T], Interval] = identity_interval,
) -> int:
    """tau(I): the size of the smallest stabbing partition of the items.

    The canonical sweep without its groups: it only counts where one
    closes.  Ties in the left endpoint cannot change the count (a tied
    interval's hi is at least the shared lo), so a plain tuple sort does.
    """
    tau = 0
    hi = 0.0
    for lo, item_hi in sorted((iv.lo, iv.hi) for iv in map(interval_of, items)):
        if not tau or lo > hi:
            tau += 1
            hi = item_hi
        elif item_hi < hi:
            hi = item_hi
    return tau


def minimum_stabbing_set(
    items: Sequence[T],
    interval_of: Callable[[T], Interval] = identity_interval,
) -> List[float]:
    """A minimum set of points stabbing every interval (classic greedy).

    Equivalent to the stabbing set of the canonical partition; exposed
    separately because the histogram code wants just the points.
    """
    return canonical_stabbing_partition(items, interval_of).stabbing_set
