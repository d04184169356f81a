"""Tests for the lazy partition's recalibration path: the relaxed trigger
recomputes tau and keeps the partition when it is still within bound,
rebuilding only on genuine drift."""

import random

from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.ssi import StabbingSetIndex
from repro.core.stabbing import canonical_stabbing_partition, stabbing_number


def churn(partition, rounds, seed, anchors):
    """Insert/delete around fixed anchors, returning the live items."""
    rng = random.Random(seed)
    live = []
    for __ in range(rounds):
        if live and rng.random() < 0.5:
            partition.delete(live.pop(rng.randrange(len(live))))
        else:
            anchor = rng.choice(anchors)
            interval = Interval(anchor - rng.uniform(0.1, 3), anchor + rng.uniform(0.1, 3))
            partition.insert(interval)
            live.append(interval)
    return live


def test_clustered_churn_recalibrates_without_rebuilding():
    anchors = [10.0 * i for i in range(1, 9)]
    partition = LazyStabbingPartition(epsilon=3.0)
    live = churn(partition, 4_000, seed=3, anchors=anchors)
    # The clustered stream stays near tau, so triggers resolve as cheap
    # recalibrations, not rebuilds.
    assert partition.recalibration_count > 0
    assert partition.reconstruction_count == 0
    tau = stabbing_number(live)
    assert len(partition) <= 4 * tau + 1e-9
    partition.validate()


def test_drift_forces_rebuild():
    # Scattered singletons with no reuse force |P| past the bound, so the
    # recalibration check fails and a genuine rebuild runs.
    partition = LazyStabbingPartition(epsilon=0.5, reuse_overlapping_group=False)
    for i in range(50):
        partition.insert(Interval(0.0 + i * 0.001, 100.0))  # all overlap: tau = 1
    assert partition.reconstruction_count > 0
    assert len(partition) == 1
    partition.validate()


def test_listeners_untouched_by_recalibration():
    """Recalibration must not fire any listener churn (that is its point)."""
    anchors = [5.0, 50.0, 500.0]
    partition = LazyStabbingPartition(epsilon=3.0)
    rebuilds = []

    class Listener:
        def on_group_created(self, group):
            pass

        def on_group_destroyed(self, group):
            pass

        def on_item_added(self, group, item):
            pass

        def on_item_removed(self, group, item):
            pass

        def on_rebuilt(self, partition):
            rebuilds.append(True)

    partition.add_listener(Listener())
    churn(partition, 2_000, seed=5, anchors=anchors)
    assert partition.recalibration_count > 0
    assert len(rebuilds) == partition.reconstruction_count


def test_ssi_structures_consistent_across_recalibrations():
    anchors = [3.0, 30.0, 300.0, 3_000.0]
    partition = LazyStabbingPartition(epsilon=1.0)
    ssi = StabbingSetIndex(
        partition,
        make_structure=set,
        add_item=lambda s, item: s.add(item),
        remove_item=lambda s, item: s.discard(item),
    )
    churn(partition, 3_000, seed=7, anchors=anchors)
    assert ssi.group_count() == len(partition.groups)
    for group in partition.groups:
        assert ssi.structure_of(group) == set(group.items)


def test_sweep_tau_matches_canonical():
    """The recalibration's tau (the bare sweep) counts the groups the
    canonical partition builds."""
    rng = random.Random(11)
    items = [
        Interval(lo, lo + rng.uniform(0, 10))
        for lo in (rng.uniform(0, 100) for __ in range(300))
    ]
    assert stabbing_number(items) == canonical_stabbing_partition(items).size
    assert stabbing_number([]) == 0
