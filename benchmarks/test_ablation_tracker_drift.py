"""Ablation (Theorem 1 / invariant I3): hotspot tracking under interest
drift.

The tracker's promise is that even when hotspots *move* (the paper's
summer-to-winter example), the amortized number of items crossing the
hotspot/scattered boundary stays <= 5 per update.  This benchmark drives
the tracker through an adversarial drifting-interest stream --- the popular
anchor migrates every epoch, repeatedly promoting fresh groups and
demoting stale ones --- and checks the credit bound plus the end-state
invariants at scale.  A second pass applies the same stream in bulk calls,
as the runtime applies a batch's subscription changes: the thresholds are
then checked once per call, and I3 must still hold per item.
"""

import random

from repro.bench.harness import measure_amortized_update_ns
from repro.core.hotspot_tracker import HotspotTracker
from repro.core.intervals import Interval

EPOCHS = 12
UPDATES_PER_EPOCH = 2_000
ALPHA = 0.02
CHUNK = 64


def drifting_stream():
    """The adversarial stream: ``(kind, interval)`` updates whose popular
    anchor migrates every epoch."""
    rng = random.Random(42)
    live = []
    anchors = [500.0 * i for i in range(1, 19)]
    updates = []
    for epoch in range(EPOCHS):
        hot_anchor = anchors[epoch % len(anchors)]
        for __ in range(UPDATES_PER_EPOCH):
            if live and rng.random() < 0.5:
                updates.append(("delete", live.pop(rng.randrange(len(live) // 4 + 1))))
            else:
                if rng.random() < 0.7:
                    # Tight cluster: every interval contains the anchor.
                    center = rng.normalvariate(hot_anchor, 2.0)
                    spread = abs(rng.normalvariate(12.0, 3.0)) + 8.0
                else:
                    center = rng.uniform(0, 10_000)
                    spread = abs(rng.normalvariate(10.0, 4.0)) + 0.5
                interval = Interval(center - spread, center + spread)
                live.append(interval)
                updates.append(("insert", interval))
    return updates


def check_theorem_1(tracker):
    tracker.validate()
    # (I3): the credit bound holds even under adversarial drift.
    assert tracker.boundary_moves() <= 5 * tracker.update_count
    # Drift really exercised the machinery: promotions and demotions both
    # happened many times over.
    assert tracker.moves_out_of_scattered > 1_500   # promotions happened
    assert tracker.moves_into_scattered > 20        # stale groups demoted
    # The current hot anchor dominates: coverage is substantial at the end.
    assert tracker.hotspot_coverage > 0.2


def report(title, tracker, ns):
    moves = tracker.boundary_moves()
    per_update = moves / tracker.update_count
    print(f"\n=== Ablation: {title} ===")
    print(f"  updates:            {tracker.update_count:,}")
    print(f"  boundary moves:     {moves:,} ({per_update:.2f}/update; bound 5)")
    print(f"  amortized cost:     {ns:,.0f} ns/update")
    print(f"  final coverage:     {tracker.hotspot_coverage:.0%} "
          f"({len(tracker.hotspot_groups)} hotspot groups)")


def test_tracker_under_interest_drift(benchmark):
    tracker: HotspotTracker[Interval] = HotspotTracker(alpha=ALPHA)
    updates = drifting_stream()

    def apply(update):
        kind, interval = update
        if kind == "insert":
            tracker.insert(interval)
        else:
            tracker.delete(interval)

    ns = measure_amortized_update_ns(apply, updates)
    report("hotspot tracking under interest drift", tracker, ns)
    check_theorem_1(tracker)

    sample = Interval(0.0, 1.0)

    def roundtrip():
        tracker.insert(sample)
        tracker.delete(sample)

    benchmark(roundtrip)


def test_tracker_under_batched_interest_drift():
    """The same stream in chunks of ``CHUNK`` updates, each applied as the
    runtime applies a batch: one bulk ``insert`` of the chunk's new
    intervals, then one bulk ``delete`` of the ones it drops, so the
    thresholds are checked once per call instead of once per update."""
    tracker: HotspotTracker[Interval] = HotspotTracker(alpha=ALPHA)
    updates = drifting_stream()
    chunks = [updates[i:i + CHUNK] for i in range(0, len(updates), CHUNK)]

    def apply(chunk):
        inserts = [interval for kind, interval in chunk if kind == "insert"]
        deletes = [interval for kind, interval in chunk if kind == "delete"]
        if inserts:
            tracker.insert(*inserts)
        if deletes:
            tracker.delete(*deletes)

    ns = measure_amortized_update_ns(apply, chunks) * len(chunks) / len(updates)
    report(f"the same drift in bulk calls of {CHUNK} updates", tracker, ns)
    assert tracker.update_count == len(updates)
    check_theorem_1(tracker)
