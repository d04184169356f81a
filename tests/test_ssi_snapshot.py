"""Tests for the SSI's dense group-table snapshot: the cached parallel
(points, structures) arrays the batch fast path iterates must always agree
with the live partition.  A group attached or detached, or a member change
that moves a stabbing point, drops them; a member change that moves no
point keeps them."""

import random

import pytest

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.refined_partition import RefinedStabbingPartition
from repro.core.ssi import GroupStructures, HotspotIndex, StabbingSetIndex


def make_ssi(partition):
    return StabbingSetIndex(
        partition,
        make_structure=set,
        add_item=lambda s, item: s.add(item),
        remove_item=lambda s, item: s.discard(item),
    )


def assert_snapshot_synchronized(ssi):
    points, structures = ssi.group_table()
    assert len(points) == len(structures) == ssi.group_count()
    live = {group.stabbing_point: ssi.structure_of(group) for group in ssi.live_groups()}
    assert len(live) == len(points), "duplicate stabbing points in group table"
    for point, structure in zip(points, structures):
        assert live[point] is structure, "snapshot structure is not the live one"


class TestGroupTableCache:
    def test_snapshot_matches_groups_iteration(self):
        partition = LazyStabbingPartition([Interval(0, 10), Interval(20, 30)])
        ssi = make_ssi(partition)
        points, structures = ssi.group_table()
        assert list(zip(points, structures)) == list(ssi.groups())
        assert_snapshot_synchronized(ssi)

    def test_snapshot_is_cached_until_mutation(self):
        partition = LazyStabbingPartition([Interval(0, 10), Interval(20, 30)])
        ssi = make_ssi(partition)
        first = ssi.group_table()
        builds = ssi.snapshot_builds
        assert ssi.group_table() is first
        assert ssi.snapshot_builds == builds  # pure reads never rebuild
        for __ in ssi.groups():
            pass
        assert ssi.snapshot_builds == builds

    def test_insert_invalidates(self):
        partition = LazyStabbingPartition(epsilon=100.0)
        ssi = make_ssi(partition)
        a = Interval(0, 10)
        ssi.insert(a)
        before = ssi.group_table()
        # A disjoint interval forces a new group, which drops the table.
        b = Interval(50, 60)
        ssi.insert(b)
        after = ssi.group_table()
        assert after is not before
        assert len(after[0]) == 2
        assert_snapshot_synchronized(ssi)

    def test_delete_invalidates(self):
        partition = LazyStabbingPartition(epsilon=100.0)
        ssi = make_ssi(partition)
        a, b = Interval(0, 10), Interval(50, 60)
        ssi.insert(a)
        ssi.insert(b)
        before = ssi.group_table()
        ssi.delete(b)
        after = ssi.group_table()
        assert after is not before
        assert len(after[0]) == 1
        assert_snapshot_synchronized(ssi)

    def test_same_group_insert_invalidates(self):
        partition = LazyStabbingPartition(epsilon=100.0)
        ssi = make_ssi(partition)
        a, b = Interval(0, 10), Interval(5, 15)
        ssi.insert(a)
        points, structures = ssi.group_table()
        assert len(points) == 1
        ssi.insert(b)  # joins the existing group: on_item_added only
        # min_hi stays 10, so the kept table already shows b through the
        # live structure.
        assert ssi.group_table()[1] is structures
        assert b in ssi.group_table()[1][0]
        assert_snapshot_synchronized(ssi)

    def test_stale_snapshot_impossible_after_rebuild(self):
        """Regression: reconstruction replaces every group object; a snapshot
        surviving on_rebuilt would hand the batch path dead structures."""
        rng = random.Random(4)
        partition = LazyStabbingPartition(epsilon=0.5, trigger="simple")
        ssi = make_ssi(partition)
        live = []
        rebuilds_seen = 0
        for step in range(300):
            lo = rng.uniform(0, 100)
            interval = Interval(lo, lo + rng.uniform(0, 10))
            ssi.insert(interval)
            live.append(interval)
            if rng.random() < 0.4:
                ssi.delete(live.pop(rng.randrange(len(live))))
            if ssi.rebuild_count > rebuilds_seen:
                rebuilds_seen = ssi.rebuild_count
                assert_snapshot_synchronized(ssi)
            if step % 7 == 0:
                assert_snapshot_synchronized(ssi)
        assert rebuilds_seen > 0, "sweep never triggered a reconstruction"

    def test_refined_partition_rotations_keep_snapshot_fresh(self):
        rng = random.Random(5)
        partition = RefinedStabbingPartition(epsilon=1.0, seed=6)
        ssi = make_ssi(partition)
        live = []
        for step in range(200):
            lo = rng.uniform(0, 100)
            interval = Interval(lo, lo + rng.uniform(0, 10))
            ssi.insert(interval)
            live.append(interval)
            if rng.random() < 0.4:
                ssi.delete(live.pop(rng.randrange(len(live))))
            if step % 5 == 0:
                assert_snapshot_synchronized(ssi)
        assert ssi.rebuild_count > 0


def disjoint(count, start=100.0):
    return [Interval(start + 10 * k, start + 10 * k + 1) for k in range(count)]


class TestSnapshotRebuildsOnlyWhenAPointMoves:
    """Each index starts with one group of the six nested intervals
    ``[-k - 1, k + 2]`` (k = 0..5; its stabbing point is its ``min_hi``,
    2.0) among disjoint singletons.
    A change that keeps every point keeps the cached table; one that moves
    a point, or attaches or detaches a group, costs exactly one build."""

    # Each maker returns the index and a reader of its reconstructions: a
    # reconstruction rebuilds the table whatever changed.  A hotspot index
    # has no partition to reconstruct.

    @staticmethod
    def _lazy():
        nested = [Interval(-k - 1.0, k + 2.0) for k in range(6)]
        ssi = make_ssi(LazyStabbingPartition(nested + disjoint(10), epsilon=100.0))
        return ssi, lambda: ssi.rebuild_count

    @staticmethod
    def _refined():
        # Fifty groups at the last reconstruction: no reconstruction in the
        # few updates a test makes.
        nested = [Interval(-k - 1.0, k + 2.0) for k in range(6)]
        ssi = make_ssi(RefinedStabbingPartition(nested + disjoint(50), epsilon=1.0, seed=3))
        return ssi, lambda: ssi.rebuild_count

    @staticmethod
    def _hotspot():
        ssi = HotspotIndex(HotspotTracker(alpha=0.25, epsilon=100.0))
        ssi.insert(*[Interval(-k - 1.0, k + 2.0) for k in range(6)], *disjoint(10))
        assert [group.size for group in ssi.tracker.hotspot_groups] == [6]
        return ssi, lambda: 0

    @staticmethod
    def _group_at(ssi, point):
        (group,) = [group for group in ssi.live_groups() if group.stabbing_point == point]
        return group

    @staticmethod
    def _builds(ssi, reconstructions, change):
        """``change(ssi)``, then the table read twice: the builds it cost."""
        before = ssi.group_table()
        builds, rebuilds = ssi.snapshot_builds, reconstructions()
        change(ssi)
        after = ssi.group_table()
        assert ssi.group_table() is after
        assert reconstructions() == rebuilds, "a reconstruction rebuilds anyway"
        assert_snapshot_synchronized(ssi)
        assert (after is before) == (ssi.snapshot_builds == builds)
        return ssi.snapshot_builds - builds

    @pytest.mark.parametrize("make", ["_lazy", "_refined", "_hotspot"])
    def test_a_member_change_that_keeps_the_point_keeps_the_table(self, make):
        ssi, reconstructions = getattr(self, make)()
        group = self._group_at(ssi, 2.0)
        size = group.size
        if make == "_refined":
            # A refined insert is always a new singleton group: the member
            # change that keeps the point is a delete of a wide member.
            widest = max(group, key=lambda item: item.hi)
            assert self._builds(ssi, reconstructions, lambda ssi: ssi.delete(widest)) == 0
            assert group.size == size - 1
        else:
            wide = Interval(-3.0, 5.0)
            assert self._builds(ssi, reconstructions, lambda ssi: ssi.insert(wide)) == 0
            assert group.size == size + 1
        assert group.stabbing_point == 2.0

    @pytest.mark.parametrize("make", ["_lazy", "_refined", "_hotspot"])
    def test_a_member_change_that_moves_the_point_rebuilds_once(self, make):
        ssi, reconstructions = getattr(self, make)()
        group = self._group_at(ssi, 2.0)
        if make == "_refined":
            # Deleting the member that sets min_hi raises the point.
            (narrowest,) = [item for item in group if item.hi == 2.0]
            assert self._builds(ssi, reconstructions, lambda ssi: ssi.delete(narrowest)) == 1
            assert group.stabbing_point == 3.0
        else:
            narrow = Interval(0.0, 1.0)
            assert self._builds(ssi, reconstructions, lambda ssi: ssi.insert(narrow)) == 1
            assert group.stabbing_point == 1.0

    @pytest.mark.parametrize("make", ["_lazy", "_refined"])
    def test_a_group_created_or_destroyed_rebuilds_once(self, make):
        ssi, reconstructions = getattr(self, make)()
        lone = Interval(-50.0, -49.0)
        count = ssi.group_count()
        assert self._builds(ssi, reconstructions, lambda ssi: ssi.insert(lone)) == 1
        assert ssi.group_count() == count + 1
        assert self._builds(ssi, reconstructions, lambda ssi: ssi.delete(lone)) == 1
        assert ssi.group_count() == count

    def test_a_promotion_and_a_demotion_each_rebuild_once(self):
        ssi, reconstructions = self._hotspot()
        # Six more copies of the first singleton: 7 of 22 items reach the
        # promotion threshold (alpha * n = 5.5).
        copies = [Interval(100.0, 101.0) for __ in range(6)]
        assert self._builds(ssi, reconstructions, lambda ssi: ssi.insert(*copies)) == 1
        assert [group.size for group in ssi.tracker.hotspot_groups] == [6, 7]
        # Five of them gone: 2 of 17 items fall below alpha / 2 * n.
        assert self._builds(ssi, reconstructions, lambda ssi: ssi.delete(*copies[:5])) == 1
        assert [group.size for group in ssi.tracker.hotspot_groups] == [6]


class TestIndexMembers:
    """A hotspot index shares the structure bookkeeping with a partition's
    index but has no partition: it lists none of the partition's members,
    and every member it lists works."""

    PARTITION_ONLY = (
        "partition", "rebuild_count", "on_rebuilt", "on_group_created",
        "on_group_destroyed", "on_item_added", "on_item_removed",
    )

    def test_only_a_partition_index_lists_the_partition_members(self):
        partition = LazyStabbingPartition([Interval(0, 10), Interval(20, 30)])
        ssi = make_ssi(partition)
        hot = HotspotIndex(HotspotTracker(alpha=0.25, epsilon=100.0))
        hot.insert(*[Interval(-k - 1.0, k + 2.0) for k in range(6)], *disjoint(10))
        assert not isinstance(hot, StabbingSetIndex)
        assert isinstance(ssi, GroupStructures) and isinstance(hot, GroupStructures)
        for name in self.PARTITION_ONLY:
            assert name in dir(ssi) and name not in dir(hot), name
        assert ssi.partition is partition and ssi.rebuild_count == 0
        for index in (ssi, hot):
            # Every public member a hotspot index lists can be read.
            public = [name for name in dir(index) if not name.startswith("_")]
            assert all(hasattr(index, name) for name in public)
            assert index.group_count() == len(index.live_groups()) == len(index.group_table()[0])
            assert_snapshot_synchronized(index)
