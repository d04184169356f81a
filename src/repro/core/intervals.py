"""Closed-interval primitives used throughout the library.

Every query range in the paper --- band-join windows ``rangeB``, local
selection ranges ``rangeA``/``rangeC``, and the intervals indexed by the
histogram of Section 3.3 --- is a closed interval ``[lo, hi]`` over a numeric
domain.  This module provides a small immutable :class:`Interval` value type
plus the handful of operations (intersection, stabbing, shifting) that the
stabbing-partition machinery builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval ``[lo, hi]`` with ``lo <= hi``.

    Instances are immutable and hashable, so they can be used as dictionary
    keys (the dynamic partition structures map intervals to their groups).
    Two distinct continuous queries may share an identical range; callers that
    need to distinguish them should key on the query object, not the interval.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo={self.lo!r} > hi={self.hi!r}")

    def contains(self, x: float) -> bool:
        """Return True if point ``x`` stabs this interval."""
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """Return True if the two closed intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Return the common intersection, or None if disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def shift(self, delta: float) -> "Interval":
        """Return this interval translated by ``delta``.

        Band-join processing instantiates each window ``rangeB_i`` against an
        incoming tuple ``r`` as ``rangeB_i + r.B``; this is that operation.
        """
        return Interval(self.lo + delta, self.hi + delta)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


def endpoints_equal(a: float, b: float) -> bool:
    """Canonical equality for interval endpoints (lint rule RA005).

    This is deliberately *exact* IEEE equality, not a tolerance test.  It
    is sound because endpoints in this codebase are only ever **copied**,
    never derived by arithmetic: ``Interval`` is frozen, an
    ``EndpointOrders`` key column stores a member's ``lo`` (or its negated
    ``hi``, and negation is exact) verbatim, and cached values such as
    ``DynamicGroup.max_lo`` / ``min_hi`` are copied from a member's
    endpoint or from those columns' ends, so the comparison is between
    bit-identical doubles.  Derived quantities (``s.b - r.b``, shifted
    windows) must not be compared with this helper — use an interval
    membership test instead, whose ``<=`` bounds are well-defined under
    rounding.
    """
    return a == b


def same_interval(a: Interval, b: Interval) -> bool:
    """Canonical value equality for two intervals (both endpoints copied
    from the same provenance; see :func:`endpoints_equal`)."""
    return endpoints_equal(a.lo, b.lo) and endpoints_equal(a.hi, b.hi)


def common_intersection(intervals: Iterable[Interval]) -> Optional[Interval]:
    """Return the common intersection of ``intervals`` (None if empty).

    The defining property of a stabbing group is that this is nonempty.
    An empty input is rejected: a group always holds at least one interval.
    """
    result: Optional[Interval] = None
    seen = False
    for interval in intervals:
        if not seen:
            result = interval
            seen = True
            continue
        assert result is not None
        result = result.intersect(interval)
        if result is None:
            return None
    if not seen:
        raise ValueError("common_intersection() of an empty collection")
    return result


def is_stabbed_by(intervals: Iterable[Interval], point: float) -> bool:
    """Return True if ``point`` stabs every interval in the collection."""
    return all(interval.contains(point) for interval in intervals)
