"""Tests for hotspot telemetry: churn listeners, reconstruction timing,
I2 headroom sampling, and the per-shard bundle."""

import random

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.obs.hotspot_telemetry import (
    HotspotChurnTelemetry,
    HotspotTelemetry,
    ReconstructionTelemetry,
    hotspot_headroom,
)
from repro.obs.tracing import RingTracer
from repro.runtime.metrics import MetricsRegistry


def pile(n, lo=0.0, hi=10.0):
    return [Interval(lo, hi) for _ in range(n)]


def spread(n, start=1):
    return [Interval(100.0 * i, 100.0 * i + 1.0) for i in range(start, start + n)]


class TestChurnTelemetry:
    def test_counts_promotions_demotions_and_item_traffic(self):
        registry = MetricsRegistry()
        tracker = HotspotTracker(alpha=0.5)
        tracker.add_listener(HotspotChurnTelemetry(registry, "t/band"))
        hot = pile(12)
        for interval in hot:
            tracker.insert(interval)
        counters = registry.snapshot()["counters"]
        assert counters["t/runtime/hotspot_promotions"] >= 1
        # Members present before the promotion fired are not counted.
        assert 1 <= counters["t/runtime/hotspot_items_added"] <= len(hot)
        for interval in spread(8):
            tracker.insert(interval)
        for interval in hot[:10]:
            tracker.delete(interval)
        counters = registry.snapshot()["counters"]
        assert counters["t/runtime/hotspot_demotions"] >= 1
        assert counters["t/runtime/hotspot_items_removed"] >= 1
        tracker.validate()

    def test_planes_share_their_shards_counters(self):
        registry = MetricsRegistry()
        for plane in ("band", "select"):
            tracker = HotspotTracker(alpha=0.5)
            tracker.add_listener(HotspotChurnTelemetry(registry, f"shard/3/{plane}"))
            for interval in pile(8):
                tracker.insert(interval)
        snap = registry.snapshot()
        per_plane = [
            snap["histograms"][f"obs/shard/3/{plane}/promoted_group_size"]["count"]
            for plane in ("band", "select")
        ]
        assert min(per_plane) >= 1
        assert snap["counters"]["shard/3/runtime/hotspot_promotions"] == sum(per_plane)

    def test_promoted_group_size_observed(self):
        registry = MetricsRegistry()
        tracker = HotspotTracker(alpha=0.5)
        tracker.add_listener(HotspotChurnTelemetry(registry, "t/band"))
        for interval in pile(12):
            tracker.insert(interval)
        hist = registry.snapshot()["histograms"]["obs/t/band/promoted_group_size"]
        assert hist["count"] >= 1
        assert hist["max"] >= 1


class TestReconstructionTelemetry:
    def drive_rebuilds(self, partition, rng, rounds=200):
        """Churn inserts/deletes until the partition reconstructs."""
        live = []
        for i in range(rounds):
            if live and rng.random() < 0.6:
                live.remove(victim := rng.choice(live))
                partition.delete(victim)
            else:
                lo = rng.uniform(0, 100)
                interval = Interval(lo, lo + rng.uniform(0.1, 30))
                live.append(interval)
                partition.insert(interval)
            if partition.reconstruction_count >= 2:
                break
        return partition.reconstruction_count

    def test_rebuilds_land_in_histogram_and_trace(self):
        registry = MetricsRegistry()
        tracer = RingTracer(capacity=64)
        # The simple trigger rebuilds on an update-count schedule, so a
        # modest churn run reliably reconstructs at least once.
        partition = LazyStabbingPartition(
            [Interval(float(i), float(i) + 5.0) for i in range(10)],
            epsilon=0.5,
            trigger="simple",
        )
        partition.add_listener(ReconstructionTelemetry(registry, "t", tracer))
        rebuilds = self.drive_rebuilds(partition, random.Random(7))
        assert rebuilds >= 1
        snap = registry.snapshot()
        assert snap["counters"]["obs/t/reconstructions"] == rebuilds
        hist = snap["histograms"]["obs/t/reconstruction_us"]
        assert hist["count"] == rebuilds
        spans = [r for r in tracer.snapshot() if r.name == "partition.rebuild"]
        assert len(spans) == rebuilds
        assert all(r.args["plane"] == "t" for r in spans)
        partition.validate()

    def test_rebuilt_without_start_marker_is_noop(self):
        registry = MetricsRegistry()
        telemetry = ReconstructionTelemetry(registry, "t")
        partition = LazyStabbingPartition([Interval(0, 1)])
        telemetry.on_rebuilt(partition)  # e.g. an initial install
        snap = registry.snapshot()
        assert snap["counters"]["obs/t/reconstructions"] == 0
        assert snap["histograms"]["obs/t/reconstruction_us"]["count"] == 0

    def test_item_callbacks_are_inert(self):
        registry = MetricsRegistry()
        telemetry = ReconstructionTelemetry(registry, "t")
        partition = LazyStabbingPartition()
        partition.add_listener(telemetry)
        interval = Interval(0, 1)
        partition.insert(interval)
        partition.delete(interval)
        assert registry.snapshot()["counters"]["obs/t/reconstructions"] == 0


class TestHeadroom:
    def test_invariant_budget_holds_under_churn(self):
        rng = random.Random(3)
        tracker = HotspotTracker(alpha=0.1, epsilon=0.5)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.35:
                live.remove(victim := rng.choice(live))
                tracker.delete(victim)
            else:
                lo = rng.uniform(0, 50)
                interval = Interval(lo, lo + rng.uniform(0.1, 10))
                live.append(interval)
                tracker.insert(interval)
        sample = hotspot_headroom(tracker, plane="p")
        assert sample.plane == "p"
        assert sample.items == len(live)
        assert sample.groups == sample.hot_groups + sample.scattered_groups
        assert sample.headroom >= 0.0  # I2: groups <= (1+eps)*tau + 2/alpha
        assert 0.0 <= sample.coverage <= 1.0
        tracker.validate()

    def test_empty_tracker(self):
        sample = hotspot_headroom(HotspotTracker(alpha=0.5))
        assert sample.items == 0 and sample.groups == 0 and sample.tau == 0


class TestHotspotTelemetryBundle:
    def test_attach_and_sample_publishes_gauges(self):
        registry = MetricsRegistry()
        telemetry = HotspotTelemetry(registry)
        tracker = HotspotTracker(alpha=0.5)
        telemetry.attach(tracker, "shard/0/band")
        for interval in pile(12):
            tracker.insert(interval)
        samples = telemetry.sample()
        assert [s.plane for s in samples] == ["shard/0/band"]
        gauges = registry.snapshot()["gauges"]
        assert gauges["obs/shard/0/band/groups"] == samples[0].groups
        assert gauges["obs/shard/0/band/tau"] == samples[0].tau
        assert gauges["obs/shard/0/band/headroom"] == samples[0].headroom
        assert gauges["obs/shard/0/band/hotspot_coverage"] == samples[0].coverage
        # Churn flowed through the bundled listener too.
        assert registry.snapshot()["counters"]["shard/0/runtime/hotspot_promotions"] >= 1

    def test_sample_tracks_multiple_planes(self):
        registry = MetricsRegistry()
        telemetry = HotspotTelemetry(registry)
        band, select = HotspotTracker(alpha=0.5), HotspotTracker(alpha=0.5)
        telemetry.attach(band, "s/band")
        telemetry.attach(select, "s/select")
        band.insert(Interval(0, 1))
        assert [s.plane for s in telemetry.sample()] == ["s/band", "s/select"]


class TestRuntimeWiring:
    def test_pipeline_sample_hotspots_inline(self):
        from repro.engine.events import DataEvent, EventKind
        from repro.engine.queries import BandJoinQuery
        from repro.engine.events import QueryEvent
        from repro.runtime.pipeline import EventPipeline

        pipeline = EventPipeline(num_shards=2, alpha=0.2, batch_size=8)
        try:
            for i in range(6):
                pipeline.submit(QueryEvent(EventKind.INSERT, BandJoinQuery(Interval(0.0, 1.0))))
            pipeline.drain()
            samples = pipeline.sample_hotspots()
        finally:
            pipeline.close()
        # Inline, num_shards=2 builds one shard: its two planes sample.
        planes = {s.plane for s in samples}
        assert planes == {"shard/0/band", "shard/0/select"}
        assert all(s.headroom >= 0.0 for s in samples)
