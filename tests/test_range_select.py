"""Tests for the range-subscription indexes: all implementations
agree with brute force; the SSI index exploits the common-box fast path."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval
from repro.operators.range_select import (
    HotspotRangeIndex,
    IntervalTreeRangeIndex,
    RangeSubscription,
    ScanRangeIndex,
    SSIRangeIndex,
)

INDEX_CLASSES = [
    ScanRangeIndex,
    IntervalTreeRangeIndex,
    SSIRangeIndex,
    HotspotRangeIndex,
]


def ids(subscriptions):
    return sorted(s.qid for s in subscriptions)


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestAgainstOracle:
    def test_basic_matching(self, cls):
        index = cls()
        a = RangeSubscription(Interval(0, 10))
        b = RangeSubscription(Interval(5, 15))
        c = RangeSubscription(Interval(20, 30))
        for s in (a, b, c):
            index.add(s)
        assert ids(index.match(7)) == ids([a, b])
        assert ids(index.match(0)) == ids([a])
        assert index.match(16) == []
        assert ids(index.match(20)) == ids([c])

    def test_removal(self, cls):
        index = cls()
        subs = [RangeSubscription(Interval(0, 10)) for __ in range(5)]
        for s in subs:
            index.add(s)
        for s in subs[::2]:
            index.remove(s)
        assert ids(index.match(5)) == ids(subs[1::2])
        assert len(index) == 2

    def test_duplicate_id_rejected(self, cls):
        index = cls()
        s = RangeSubscription(Interval(0, 1))
        index.add(s)
        with pytest.raises(ValueError):
            index.add(s)

    def test_empty(self, cls):
        assert cls().match(0.0) == []


@given(
    st.lists(
        st.tuples(st.integers(-30, 30), st.integers(0, 20)),
        min_size=1,
        max_size=50,
    ),
    st.lists(st.integers(-35, 55), min_size=1, max_size=12),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_all_indexes_agree(raw, probes, data):
    subscriptions = [
        RangeSubscription(Interval(float(lo), float(lo + width))) for lo, width in raw
    ]
    indexes = [cls() for cls in INDEX_CLASSES]
    for s in subscriptions:
        for index in indexes:
            index.add(s)
    removals = data.draw(st.integers(0, len(subscriptions) // 2))
    live = list(subscriptions)
    for __ in range(removals):
        victim = live.pop(data.draw(st.integers(0, len(live) - 1)))
        for index in indexes:
            index.remove(victim)
    for x in probes:
        want = ids([s for s in live if s.matches(x)])
        for index in indexes:
            assert ids(index.match(float(x))) == want, index.name


class TestSSIFastPath:
    def test_common_intersection_reports_whole_group(self):
        index = SSIRangeIndex()
        subs = [RangeSubscription(Interval(0.0, 100.0 + i)) for i in range(50)]
        for s in subs:
            index.add(s)
        assert index.group_count == 1
        assert ids(index.match(50.0)) == ids(subs)

    def test_left_tail_scan_is_partial(self):
        index = SSIRangeIndex()
        # All share [40, 60]; left endpoints vary.
        subs = [RangeSubscription(Interval(float(lo), 60.0)) for lo in range(0, 40, 4)]
        for s in subs:
            index.add(s)
        matched = index.match(10.0)
        assert ids(matched) == ids([s for s in subs if s.range.lo <= 10.0])

    def test_group_count_tracks_clusters(self):
        index = SSIRangeIndex()
        for anchor in (10.0, 200.0, 3_000.0):
            for i in range(20):
                index.add(RangeSubscription(Interval(anchor - 1 - i * 0.01, anchor + 1)))
        assert index.group_count <= 6  # (1 + eps) * 3


class TestHotspotRangeIndex:
    def test_coverage_and_bookkeeping(self):
        index = HotspotRangeIndex(alpha=0.1)
        clustered = [RangeSubscription(Interval(9.0, 11.0)) for __ in range(40)]
        scattered = [
            RangeSubscription(Interval(100.0 + i * 50, 101.0 + i * 50)) for i in range(10)
        ]
        for s in clustered + scattered:
            index.add(s)
        index.validate()
        assert index.hotspot_coverage > 0.7
        assert sorted(s.qid for s in index.match(10.0)) == sorted(s.qid for s in clustered)
        assert [s.qid for s in index.match(150.5)] == [scattered[1].qid]

    def test_demote_keeps_matching_correct(self):
        index = HotspotRangeIndex(alpha=0.3)
        cluster = [RangeSubscription(Interval(0.0, 1.0)) for __ in range(5)]
        for s in cluster:
            index.add(s)
        # Dilute until the cluster demotes to scattered.
        extras = [
            RangeSubscription(Interval(1_000.0 + i * 10, 1_000.5 + i * 10))
            for i in range(40)
        ]
        for s in extras:
            index.add(s)
        index.validate()
        assert sorted(s.qid for s in index.match(0.5)) == sorted(s.qid for s in cluster)
