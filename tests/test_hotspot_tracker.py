"""Tests for the hotspot tracker (Theorem 1): invariants I1-I3, promote/
demote hysteresis, listener callbacks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.intervals import Interval
from repro.core.refined_partition import RefinedStabbingPartition

from conftest import fresh_intervals, int_interval_strategy


class RecordingHotspotListener:
    def __init__(self):
        self.promoted = []
        self.demoted = []
        self.hot_added = []
        self.hot_removed = []

    def on_promoted(self, group):
        self.promoted.append(group)

    def on_demoted(self, group):
        self.demoted.append(group)

    def on_hot_items_added(self, added):
        self.hot_added.extend(item for __, item in added)

    def on_hot_items_removed(self, removed):
        self.hot_removed.extend(item for __, item in removed)


class TestBasics:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            HotspotTracker(alpha=0.0)
        with pytest.raises(ValueError):
            HotspotTracker(alpha=1.5)

    def test_clustered_items_promote(self):
        tracker = HotspotTracker(alpha=0.3)
        items = [Interval(0.0, 10.0) for __ in range(10)]
        for item in items:
            tracker.insert(item)
        tracker.validate()
        assert tracker.hotspot_coverage == 1.0
        assert len(tracker.hotspot_groups) == 1
        assert all(tracker.is_hotspot_item(item) for item in items)

    def test_scattered_items_stay_scattered(self):
        tracker = HotspotTracker(alpha=0.3)
        for i in range(10):
            tracker.insert(Interval(i * 100.0, i * 100.0 + 1))
        tracker.validate()
        # No point is contained in >= 30% of these disjoint intervals.
        assert tracker.hotspot_item_count <= 2  # tiny-n promotions at most
        assert len(tracker) == 10

    def test_insert_goes_directly_into_overlapping_hotspot(self):
        tracker = HotspotTracker(alpha=0.2)
        for __ in range(10):
            tracker.insert(Interval(0.0, 10.0))
        listener = RecordingHotspotListener()
        tracker.add_listener(listener)
        extra = Interval(5.0, 20.0)
        tracker.insert(extra)
        assert listener.hot_added == [extra]
        assert tracker.is_hotspot_item(extra)

    def test_insert_rejects_a_held_or_repeated_item(self):
        # A held item, hot or scattered, or one repeated within the call,
        # raises before any item of the call is placed or announced.
        tracker = HotspotTracker(alpha=0.5)
        hot = [Interval(0.0, 10.0) for __ in range(3)]
        scattered = Interval(100.0, 101.0)
        tracker.insert(*hot, scattered)
        listener = RecordingHotspotListener()
        tracker.add_listener(listener)
        assert tracker.is_hotspot_item(hot[0]) and scattered in tracker.scattered
        new = Interval(5.0, 20.0)  # would join the hot group
        for items in ((new, hot[0]), (new, scattered), (new, new)):
            with pytest.raises(ValueError):
                tracker.insert(*items)
            assert len(tracker) == 4 and tracker.hotspot_item_count == 3
            assert not tracker.is_hotspot_item(new) and new not in tracker.scattered
            assert (listener.promoted, listener.demoted, listener.hot_added) == ([], [], [])
            tracker.validate()

    def test_delete_hot_item(self):
        tracker = HotspotTracker(alpha=0.2)
        items = [Interval(0.0, 10.0) for __ in range(10)]
        for item in items:
            tracker.insert(item)
        tracker.delete(items[0])
        tracker.validate()
        assert len(tracker) == 9

    def test_delete_scattered_item(self):
        tracker = HotspotTracker(alpha=0.9)
        a = Interval(0, 1)
        b = Interval(100, 101)
        c = Interval(200, 201)
        for item in (a, b, c):
            tracker.insert(item)
        tracker.delete(b)
        tracker.validate()
        assert len(tracker) == 2


class TestPromoteDemote:
    def test_demotion_when_hotspot_dilutes(self):
        tracker = HotspotTracker(alpha=0.4)
        hot_items = [Interval(0.0, 1.0) for __ in range(4)]
        for item in hot_items:
            tracker.insert(item)
        assert tracker.hotspot_coverage == 1.0
        # Flood with scattered queries until the group is < alpha/2 of total.
        for i in range(30):
            tracker.insert(Interval(1000.0 + i * 50, 1000.0 + i * 50 + 1))
        tracker.validate()
        assert not tracker.is_hotspot_item(hot_items[0])

    def test_promotion_after_deletions_shrink_n(self):
        tracker = HotspotTracker(alpha=0.5)
        # Noise first so n is already large when the cluster arrives and the
        # cluster stays below the promote threshold (4 < 0.5 * 12).
        noise = [Interval(1000.0 + i * 50, 1000.0 + i * 50 + 1) for i in range(8)]
        cluster = [Interval(0.0, 1.0) for __ in range(4)]
        for item in noise + cluster:
            tracker.insert(item)
        assert not tracker.is_hotspot_item(cluster[0])
        for item in noise:
            tracker.delete(item)
        tracker.validate()
        assert tracker.is_hotspot_item(cluster[0])

    def test_listener_promote_demote_sequence(self):
        listener = RecordingHotspotListener()
        tracker = HotspotTracker(alpha=0.4)
        tracker.add_listener(listener)
        cluster = [Interval(0.0, 1.0) for __ in range(4)]
        for item in cluster:
            tracker.insert(item)
        assert len(listener.promoted) >= 1
        for i in range(30):
            tracker.insert(Interval(1000.0 + i * 50, 1000.0 + i * 50 + 1))
        assert len(listener.demoted) >= 1


class TestInvariants:
    @given(
        st.lists(int_interval_strategy(), min_size=1, max_size=70),
        st.lists(st.integers(0, 10_000), max_size=50),
        st.sampled_from([0.1, 0.25, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_under_random_updates(self, intervals, picks, alpha):
        intervals = fresh_intervals(intervals)
        tracker = HotspotTracker(alpha=alpha)
        live = []
        ops = iter(picks)
        for interval in intervals:
            tracker.insert(interval)
            live.append(interval)
            pick = next(ops, None)
            if pick is not None and live and pick % 3 == 0:
                victim = live.pop(pick % len(live))
                tracker.delete(victim)
        tracker.validate()
        # (I3): amortized boundary moves <= 5 per update.
        assert tracker.boundary_moves() <= 5 * tracker.update_count

    @given(st.lists(int_interval_strategy(), min_size=5, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_hotspot_group_count_bound(self, intervals):
        tracker = HotspotTracker(alpha=0.2)
        for interval in fresh_intervals(intervals):
            tracker.insert(interval)
        assert len(tracker.hotspot_groups) <= 2 / 0.2

    def test_moves_bound_on_adversarial_stream(self):
        # Repeatedly grow a cluster to the promote threshold and dilute it
        # back below the demote threshold.
        tracker = HotspotTracker(alpha=0.5)
        rng = random.Random(5)
        live = []
        for round_no in range(20):
            for __ in range(4):
                item = Interval(0.0, 1.0)
                tracker.insert(item)
                live.append(item)
            for i in range(6):
                item = Interval(5000.0 + rng.random() * 5000, 9999.0 + rng.random())
                tracker.insert(item)
                live.append(item)
            for __ in range(5):
                victim = live.pop(rng.randrange(len(live)))
                tracker.delete(victim)
        tracker.validate()
        assert tracker.boundary_moves() <= 5 * tracker.update_count


class TestWithRefinedPartition:
    def test_refined_partition_backend(self):
        tracker = HotspotTracker(
            alpha=0.3,
            partition_factory=lambda eps, iof: RefinedStabbingPartition(
                epsilon=eps, interval_of=iof, seed=13
            ),
        )
        rng = random.Random(6)
        live = []
        for __ in range(200):
            if rng.random() < 0.5:
                interval = Interval(0.0, 10.0)  # hotspot cluster
            else:
                lo = rng.uniform(100, 1000)
                interval = Interval(lo, lo + 5)
            tracker.insert(interval)
            live.append(interval)
            if rng.random() < 0.3:
                victim = live.pop(rng.randrange(len(live)))
                tracker.delete(victim)
        tracker.validate()
        assert tracker.hotspot_coverage > 0.3
