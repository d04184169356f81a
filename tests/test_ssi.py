"""Tests for the generic stabbing set index framework: per-group structures
stay synchronized with the partition through updates and reconstructions."""

import random

from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.refined_partition import RefinedStabbingPartition
from repro.core.ssi import StabbingSetIndex
from repro.core.stabbing import identity_interval
from repro.dstruct.endpoint_orders import EndpointOrders
from repro.engine.queries import BandJoinQuery, band_interval
from repro.engine.table import TableR, TableS
from repro.operators.band_join import BJSSI
from repro.operators.hotspot_processor import HotspotBandJoinProcessor
from repro.operators.range_select import HotspotRangeIndex, RangeSubscription


def make_ssi(partition):
    """SSI whose per-group structure is a plain set of items."""
    return StabbingSetIndex(
        partition,
        make_structure=set,
        add_item=lambda s, item: s.add(item),
        remove_item=lambda s, item: s.discard(item),
    )


def assert_synchronized(ssi):
    partition = ssi.partition
    assert ssi.group_count() == len(partition.groups)
    for group in partition.groups:
        structure = ssi.structure_of(group)
        assert structure == set(group.items), "per-group structure out of sync"


class TestWithLazyPartition:
    def test_bootstrap_from_existing_items(self):
        intervals = [Interval(0, 10), Interval(2, 8), Interval(50, 60)]
        partition = LazyStabbingPartition(intervals)
        ssi = make_ssi(partition)
        assert_synchronized(ssi)
        assert len(ssi) == 3

    def test_insert_delete_via_ssi(self):
        partition = LazyStabbingPartition(epsilon=100.0)
        ssi = make_ssi(partition)
        a, b = Interval(0, 10), Interval(5, 15)
        ssi.insert(a)
        ssi.insert(b)
        assert_synchronized(ssi)
        ssi.delete(a)
        assert_synchronized(ssi)
        assert len(ssi) == 1

    def test_groups_iteration_yields_stabbing_points(self):
        partition = LazyStabbingPartition([Interval(0, 10), Interval(20, 30)])
        ssi = make_ssi(partition)
        points = sorted(point for point, __ in ssi.groups())
        assert points == [10.0, 30.0]

    def test_survives_reconstruction(self):
        rng = random.Random(1)
        partition = LazyStabbingPartition(epsilon=0.5, trigger="simple")
        ssi = make_ssi(partition)
        live = []
        for __ in range(200):
            lo = rng.uniform(0, 100)
            interval = Interval(lo, lo + rng.uniform(0, 10))
            ssi.insert(interval)
            live.append(interval)
            if rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                ssi.delete(victim)
            assert_synchronized(ssi)
        assert ssi.rebuild_count == partition.reconstruction_count
        assert ssi.rebuild_count > 0


class TestWithRefinedPartition:
    def test_survives_reconstruction(self):
        rng = random.Random(2)
        partition = RefinedStabbingPartition(epsilon=1.0, seed=3)
        ssi = make_ssi(partition)
        live = []
        for __ in range(200):
            lo = rng.uniform(0, 100)
            interval = Interval(lo, lo + rng.uniform(0, 10))
            ssi.insert(interval)
            live.append(interval)
            if rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                ssi.delete(victim)
            assert_synchronized(ssi)
        assert ssi.rebuild_count > 0


def churn(add, remove, make, after_each, *, seed, steps=300):
    """A clustered burst, then scattered arrivals, with deletes mixed in:
    a promotion, then demotions as the cluster dilutes; ``after_each``
    runs after every update."""
    rng = random.Random(seed)
    live = []
    for step in range(steps):
        lo = rng.uniform(-1.0, 0.0) if step < 40 else rng.uniform(-500.0, 500.0)
        item = make(Interval(lo, lo + rng.uniform(1.0, 5.0)))
        add(item)
        live.append(item)
        after_each()
        if step >= 40 and rng.random() < 0.4:
            remove(live.pop(rng.randrange(len(live))))
            after_each()


class TestStructureIsTheGroupsOrders:
    """A group that keeps its members' orders is its own default structure,
    never copied; a treap-backed refined group gets a copy."""

    def test_bjssi_over_a_lazy_partition(self):
        partition = LazyStabbingPartition(epsilon=0.5, trigger="simple", interval_of=band_interval)
        processor = BJSSI(TableS(), TableR(), partition=partition)

        def in_place():
            for group in partition.groups:
                assert processor.ssi.structure_of(group) is group.orders

        churn(processor.add_query, processor.remove_query, BandJoinQuery, in_place, seed=4)
        assert partition.reconstruction_count > 0

    def test_hot_groups_of_the_hotspot_processors(self):
        band = HotspotBandJoinProcessor(TableS(), TableR(), alpha=0.2)
        ranges = HotspotRangeIndex(alpha=0.2)
        for owner, add, remove, make in (
            (band, band.add_query, band.remove_query, BandJoinQuery),
            (ranges, ranges.add, ranges.remove, RangeSubscription),
        ):
            hot = owner._hot

            def in_place(hot=hot):
                for group in hot.tracker.hotspot_groups:
                    assert hot.structure_of(group) is group.orders

            churn(add, remove, make, in_place, seed=5)
            owner.validate()
            assert hot.tracker.moves_out_of_scattered > 0  # promoted
            assert hot.tracker.moves_into_scattered > 0  # demoted

    def test_a_refined_group_gets_a_checked_copy(self):
        partition = RefinedStabbingPartition(epsilon=1.0, seed=3)
        ssi = StabbingSetIndex(partition)

        def copied():
            for group in partition.groups:
                structure = ssi.structure_of(group)
                assert isinstance(structure, EndpointOrders)
                assert structure is not getattr(group, "orders", None)
                structure.check(group, identity_interval)

        churn(ssi.insert, ssi.delete, lambda interval: interval, copied, seed=6)
        assert ssi.rebuild_count > 0
