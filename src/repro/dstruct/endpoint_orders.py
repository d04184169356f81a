"""A stabbing group's two endpoint orders (Section 3.1).

Every SSI group keeps its members in ascending-left-endpoint order and in
descending-right-endpoint order (the sequences I^l_j and I^r_j): a group
probe walks one order from its head and stops at the first member whose
endpoint misses.  :class:`EndpointOrders` is that structure for every
operator that needs it (the band-join, band-select-join and range-selection
groups, and BJ-MJ's window list).  A lazy or hotspot
:class:`~repro.core.partition_base.DynamicGroup` keeps its members in one
and nowhere else, so that object is both the group and its SSI structure.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Generic, Iterable, List, TypeVar

from repro.core.intervals import Interval

T = TypeVar("T")


class EndpointOrders(Generic[T]):
    """Members in both endpoint orders, stored columnar.

    Each order is a plain item list with ``array('d')`` key columns
    parallel to it: ``by_lo`` with ``lo_keys`` (ascending) and
    ``hi_by_lo``; ``by_hi_desc`` with ``neg_hi_keys`` (right endpoints
    negated, so they too sort ascending) and ``lo_by_hi``.  Equal keys keep
    insertion order.  The caller passes each item's interval, and items are
    matched by identity, so distinct items may carry equal intervals.
    """

    __slots__ = ("by_lo", "lo_keys", "hi_by_lo", "by_hi_desc", "neg_hi_keys", "lo_by_hi")

    def __init__(self) -> None:
        self.by_lo: List[T] = []
        self.lo_keys = array("d")
        self.hi_by_lo = array("d")  # hi, parallel to by_lo
        self.by_hi_desc: List[T] = []
        self.neg_hi_keys = array("d")
        self.lo_by_hi = array("d")  # lo, parallel to by_hi_desc

    def __len__(self) -> int:
        return len(self.by_lo)

    def add(self, item: T, interval: Interval) -> None:
        lo = interval.lo
        hi = interval.hi
        idx = bisect_right(self.lo_keys, lo)
        self.by_lo.insert(idx, item)
        self.lo_keys.insert(idx, lo)
        self.hi_by_lo.insert(idx, hi)
        idx = bisect_right(self.neg_hi_keys, -hi)
        self.by_hi_desc.insert(idx, item)
        self.neg_hi_keys.insert(idx, -hi)
        self.lo_by_hi.insert(idx, lo)

    def remove(self, item: T, interval: Interval) -> None:
        """Remove ``item``; raises ``ValueError``, changing nothing, if it
        is not held under ``interval``."""
        i = find_slot(self.lo_keys, self.by_lo, interval.lo, item)
        j = find_slot(self.neg_hi_keys, self.by_hi_desc, -interval.hi, item)
        del self.by_lo[i], self.lo_keys[i], self.hi_by_lo[i]
        del self.by_hi_desc[j], self.neg_hi_keys[j], self.lo_by_hi[j]

    def check(self, members: Iterable[T], interval_of: Callable[[T], Interval]) -> None:
        """Assert both orders hold exactly ``members``, each once, sorted,
        with every key column parallel to its list."""
        expected = {id(item) for item in members}
        for items in (self.by_lo, self.by_hi_desc):
            held = {id(item) for item in items} & expected
            assert len(items) == len(expected) == len(held), "the orders hold other items"
        by_lo = [interval_of(item) for item in self.by_lo]
        by_hi = [interval_of(item) for item in self.by_hi_desc]
        assert list(self.lo_keys) == sorted(self.lo_keys) == [i.lo for i in by_lo], "lo_keys drifted"
        assert list(self.hi_by_lo) == [i.hi for i in by_lo], "hi_by_lo drifted"
        assert list(self.neg_hi_keys) == sorted(self.neg_hi_keys) == [-i.hi for i in by_hi], (
            "neg_hi_keys drifted"
        )
        assert list(self.lo_by_hi) == [i.lo for i in by_hi], "lo_by_hi drifted"


def find_slot(keys: array[float], items: List[T], key: float, item: T) -> int:
    """The position of ``item`` among the entries of sorted ``keys`` equal to
    ``key`` (``items`` parallel to ``keys``, matched by identity); raises
    ``ValueError`` if it is not there."""
    idx = bisect_left(keys, key)
    while idx < len(keys) and keys[idx] == key:
        if items[idx] is item:
            return idx
        idx += 1
    raise ValueError(f"item not found: {item!r}")
