"""Hypothesis stateful (model-based) tests.

Each machine drives a structure through arbitrary interleaved operation
sequences while checking it against a trivial model after every step ---
the strongest guard against ordering-dependent bugs in the dynamic
structures (B+ tree rebalancing, partition reconstruction, hotspot
promote/demote).
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.refined_partition import RefinedStabbingPartition
from repro.core.stabbing import stabbing_number
from repro.dstruct.btree import BPlusTree
from repro.dstruct.interval_tree import IntervalTree

KEYS = st.integers(0, 40)
INTERVAL_LO = st.integers(-20, 20)
INTERVAL_LEN = st.integers(0, 12)


class BPlusTreeMachine(RuleBasedStateMachine):
    """B+ tree vs a sorted-list model."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(4)
        self.model = []  # list of (key, token)
        self.counter = 0

    @rule(key=KEYS)
    def insert(self, key):
        token = self.counter
        self.counter += 1
        self.tree.insert(key, token)
        self.model.append((key, token))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        key, token = self.model.pop(data.draw(st.integers(0, len(self.model) - 1)))
        assert self.tree.remove(key, token) == token

    @rule(key=KEYS)
    def probe(self, key):
        expected = sorted(k for k, __ in self.model)
        ge = self.tree.cursor_ge(key)
        want_ge = min((k for k in expected if k >= key), default=None)
        assert (ge.key if ge.valid else None) == want_ge
        le = self.tree.cursor_le(key)
        want_le = max((k for k in expected if k <= key), default=None)
        assert (le.key if le.valid else None) == want_le

    @invariant()
    def structure_and_contents(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)
        assert [k for k, __ in self.tree.items()] == sorted(k for k, __ in self.model)


class StabbingIndexMachine(RuleBasedStateMachine):
    """Interval tree vs a list model."""

    def __init__(self):
        super().__init__()
        self.tree = IntervalTree(rng=random.Random(1))
        self.model = []  # (interval, token)
        self.counter = 0

    @rule(lo=INTERVAL_LO, length=INTERVAL_LEN)
    def insert(self, lo, length):
        interval = Interval(float(lo), float(lo + length))
        token = self.counter
        self.counter += 1
        self.tree.insert(interval, token)
        self.model.append((interval, token))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        interval, token = self.model.pop(
            data.draw(st.integers(0, len(self.model) - 1))
        )
        self.tree.remove(interval, token)

    @rule(x=st.integers(-25, 40))
    def stab(self, x):
        want = sorted(t for iv, t in self.model if iv.contains(float(x)))
        assert sorted(t for __, t in self.tree.stab(float(x))) == want

    @invariant()
    def sizes_agree(self):
        assert len(self.tree) == len(self.model)


class LazyPartitionMachine(RuleBasedStateMachine):
    """Lazy partition: validity + (1 + eps) bound after every operation."""

    def __init__(self):
        super().__init__()
        self.partition = LazyStabbingPartition(epsilon=1.0)
        self.live = []

    @rule(lo=INTERVAL_LO, length=INTERVAL_LEN)
    def insert(self, lo, length):
        interval = Interval(float(lo), float(lo + length))
        self.partition.insert(interval)
        self.live.append(interval)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        victim = self.live.pop(data.draw(st.integers(0, len(self.live) - 1)))
        self.partition.delete(victim)

    @invariant()
    def partition_valid_and_bounded(self):
        self.partition.validate()
        assert self.partition.total_items() == len(self.live)
        tau = stabbing_number(self.live)
        assert len(self.partition) <= 2.0 * tau + 1e-9


class RefinedPartitionMachine(RuleBasedStateMachine):
    """Refined (Appendix B) partition under the same contract."""

    def __init__(self):
        super().__init__()
        self.partition = RefinedStabbingPartition(epsilon=1.0, seed=3)
        self.live = []

    @rule(lo=INTERVAL_LO, length=INTERVAL_LEN)
    def insert(self, lo, length):
        interval = Interval(float(lo), float(lo + length))
        self.partition.insert(interval)
        self.live.append(interval)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        victim = self.live.pop(data.draw(st.integers(0, len(self.live) - 1)))
        self.partition.delete(victim)

    @invariant()
    def partition_valid_and_bounded(self):
        self.partition.validate()
        assert self.partition.total_items() == len(self.live)
        tau = stabbing_number(self.live)
        assert len(self.partition) <= 2.0 * tau + 1e-9


class HotspotTrackerMachine(RuleBasedStateMachine):
    """Hotspot tracker: invariants I1-I3 after every operation."""

    def __init__(self):
        super().__init__()
        self.tracker = HotspotTracker(alpha=0.25)
        self.live = []

    @rule(lo=INTERVAL_LO, length=INTERVAL_LEN)
    def insert(self, lo, length):
        interval = Interval(float(lo), float(lo + length))
        self.tracker.insert(interval)
        self.live.append(interval)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        victim = self.live.pop(data.draw(st.integers(0, len(self.live) - 1)))
        self.tracker.delete(victim)

    @invariant()
    def tracker_invariants(self):
        self.tracker.validate()
        assert len(self.tracker) == len(self.live)
        assert self.tracker.boundary_moves() <= 5 * max(self.tracker.update_count, 1)


COMMON = settings(max_examples=25, stateful_step_count=30, deadline=None)

TestBPlusTreeMachine = BPlusTreeMachine.TestCase
TestBPlusTreeMachine.settings = COMMON
TestStabbingIndexMachine = StabbingIndexMachine.TestCase
TestStabbingIndexMachine.settings = COMMON
TestLazyPartitionMachine = LazyPartitionMachine.TestCase
TestLazyPartitionMachine.settings = COMMON
TestRefinedPartitionMachine = RefinedPartitionMachine.TestCase
TestRefinedPartitionMachine.settings = COMMON
TestHotspotTrackerMachine = HotspotTrackerMachine.TestCase
TestHotspotTrackerMachine.settings = COMMON
