"""Tests for DynamicGroup (the mutable stabbing-group building block),
including the cached intersection extrema under adversarial removals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval, common_intersection
from repro.core.partition_base import DynamicGroup
from repro.core.stabbing import identity_interval

from conftest import int_interval_strategy


def make_group(intervals=()):
    group = DynamicGroup(identity_interval)
    for interval in intervals:
        group.add(interval)
    return group


class TestMembership:
    def test_add_and_len(self):
        group = make_group([Interval(0, 10), Interval(5, 15)])
        assert len(group) == 2
        assert group.size == 2

    def test_equal_but_distinct_objects_allowed(self):
        group = make_group([Interval(0, 1), Interval(0, 1)])
        assert group.size == 2

    def test_remove_of_unheld_endpoint_raises(self):
        # The orders refuse an item they do not hold under its interval
        # instead of deleting a neighbour, and the group is left unchanged.
        item = [Interval(0, 10)]
        other = [Interval(5, 10)]
        group = DynamicGroup(lambda held: held[0])
        group.add(item)
        group.add(other)
        item[0] = Interval(3, 10)
        with pytest.raises(ValueError):
            group.remove(item)
        assert group.size == len(group) == 2
        assert group.common == Interval(5, 10)
        assert [id(member) for member in group] == [id(item), id(other)]

    def test_items_and_iter(self):
        intervals = [Interval(0, 10), Interval(5, 15)]
        group = make_group(intervals)
        assert set(map(id, group.items)) == set(map(id, intervals))
        assert sorted((iv.lo, iv.hi) for iv in group) == [(0, 10), (5, 15)]


class TestCommonIntersection:
    def test_common_tracks_adds(self):
        group = make_group()
        assert group.common is None
        group.add(Interval(0, 10))
        assert group.common == Interval(0, 10)
        group.add(Interval(5, 20))
        assert group.common == Interval(5, 10)

    def test_common_widens_on_removal(self):
        narrow = Interval(4, 6)
        group = make_group([Interval(0, 10), narrow])
        assert group.common == Interval(4, 6)
        group.remove(narrow)
        assert group.common == Interval(0, 10)

    def test_stabbing_point_is_right_endpoint(self):
        group = make_group([Interval(0, 10), Interval(5, 20)])
        assert group.stabbing_point == 10.0

    def test_stabbing_point_requires_members(self):
        with pytest.raises(AssertionError):
            make_group().stabbing_point

    def test_would_remain_stabbed(self):
        group = make_group([Interval(0, 10), Interval(5, 20)])
        assert group.would_remain_stabbed(Interval(8, 30))
        assert group.would_remain_stabbed(Interval(10, 30))  # touching
        assert not group.would_remain_stabbed(Interval(11, 30))
        assert make_group().would_remain_stabbed(Interval(0, 0))

    def test_extrema_with_duplicate_endpoints(self):
        # Two members share the max lo; removing one must keep the cache.
        a = Interval(5, 10)
        b = Interval(5, 12)
        c = Interval(0, 20)
        group = make_group([a, b, c])
        assert group.common == Interval(5, 10)
        group.remove(a)
        assert group.common == Interval(5, 12)
        group.remove(b)
        assert group.common == Interval(0, 20)

    @given(st.lists(int_interval_strategy(), min_size=1, max_size=30), st.data())
    @settings(max_examples=80)
    def test_extrema_cache_matches_recomputation(self, intervals, data):
        # Only sequences that keep a common intersection are valid groups.
        group = make_group()
        members = []
        for interval in intervals:
            if group.would_remain_stabbed(interval):
                group.add(interval)
                members.append(interval)
        removals = data.draw(st.integers(0, max(len(members) - 1, 0)))
        for __ in range(removals):
            idx = data.draw(st.integers(0, len(members) - 1))
            group.remove(members.pop(idx))
        if members:
            assert group.common == common_intersection(members)
        else:
            assert group.common is None
