"""Tests for the runtime metrics primitives: counters/gauges/histograms,
log2 bucketing, registry snapshots and the hotspot-churn listener."""

import math
from types import SimpleNamespace

import pytest

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.intervals import Interval
from repro.obs.export import estimate_quantile, render_snapshot
from repro.obs.hotspot_telemetry import HotspotChurnTelemetry
from repro.runtime.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge()
        g.set(3.5)
        g.set(-1.0)
        assert g.value == -1.0


class TestHistogram:
    def test_empty_snapshot(self):
        h = Histogram()
        assert h.count == 0 and h.mean == 0.0
        assert h.snapshot() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0, "buckets": [],
        }

    def test_basic_stats(self):
        h = Histogram()
        for value in [1.0, 2.0, 3.0, 10.0]:
            h.observe(value)
        assert h.count == 4
        assert h.mean == pytest.approx(4.0)
        snap = h.snapshot()
        assert snap["min"] == 1.0 and snap["max"] == 10.0 and snap["sum"] == 16.0

    def test_negative_observations_clamp_to_zero(self):
        h = Histogram()
        h.observe(-5.0)
        assert h.count == 1
        assert h.snapshot()["min"] == 0.0 and h.snapshot()["max"] == 0.0

    def test_quantiles_within_factor_of_two(self):
        """Log2 bucketing: a quantile read from the buckets lies in the
        true quantile's bucket, so within a factor of two of it."""
        h = Histogram()
        values = [float(v) for v in range(1, 1_000)]
        for value in values:
            h.observe(value)
        snap = h.snapshot()
        for q in (0.5, 0.9, 0.99):
            true = values[math.ceil(q * len(values)) - 1]
            got = estimate_quantile(snap["buckets"], snap["count"], q)
            assert true / 2 <= got < 2 * true

    def test_quantile_domain_checked(self):
        h = Histogram()
        h.observe(3.0)
        snap = h.snapshot()
        for q in (-0.1, 1.5):
            with pytest.raises(ValueError):
                estimate_quantile(snap["buckets"], snap["count"], q)

    def test_huge_values_saturate_last_bucket(self):
        h = Histogram()
        h.observe(2.0**100)
        assert h.snapshot()["buckets"] == [[63, 1]]  # clamped to the last bucket
        assert h.snapshot()["max"] == 2.0**100  # exact extremes still kept


class TestRegistry:
    def test_creation_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a/b") is registry.counter("a/b")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(2)
        registry.counter("a").inc()
        registry.gauge("depth").set(7.0)
        registry.histogram("lat").observe(3.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"]["z"] == 2
        assert snap["gauges"]["depth"] == 7.0
        assert snap["histograms"]["lat"]["count"] == 1

    def test_render(self):
        registry = MetricsRegistry()
        assert render_snapshot(registry.snapshot()) == "(no metrics recorded)"
        registry.counter("pipeline/events").inc(1_234)
        registry.gauge("queue").set(5.0)
        registry.histogram("batch").observe(12.0)
        text = render_snapshot(registry.snapshot())
        assert "pipeline/events" in text and "1,234" in text
        assert "queue" in text and "batch" in text


class TestHotspotMetricsListener:
    """The churn listener a shard attaches to each plane's tracker,
    :class:`HotspotChurnTelemetry`, writing ``shard/<i>/runtime/hotspot_*``."""

    def test_promotions_and_demotions_counted(self):
        registry = MetricsRegistry()
        tracker = HotspotTracker(alpha=0.5)
        tracker.add_listener(HotspotChurnTelemetry(registry, "shard/0/band"))
        # A pile of co-stabbed intervals forms one dominant group -> promote.
        pile = [Interval(0.0, 10.0) for _ in range(12)]
        for interval in pile:
            tracker.insert(interval)
        counters = registry.snapshot()["counters"]
        assert counters["shard/0/runtime/hotspot_promotions"] >= 1
        # Scatter the set and delete most of the pile -> the group falls
        # below (alpha/2) * n and is demoted.
        spread = [Interval(100.0 * i, 100.0 * i + 1.0) for i in range(1, 9)]
        for interval in spread:
            tracker.insert(interval)
        for interval in pile[:10]:
            tracker.delete(interval)
        counters = registry.snapshot()["counters"]
        assert counters["shard/0/runtime/hotspot_demotions"] >= 1
        tracker.validate()

    def test_direct_callbacks_symmetric(self):
        """Promotion and demotion are counted symmetrically: each callback
        increments exactly its own counter, whatever the group's type; a
        promotion also records the promoted group's size."""
        registry = MetricsRegistry()
        listener = HotspotChurnTelemetry(registry, "shard/3/band")
        group = SimpleNamespace(size=4)
        listener.on_promoted(group)
        listener.on_promoted(group)
        listener.on_demoted(group)
        snap = registry.snapshot()
        assert snap["counters"]["shard/3/runtime/hotspot_promotions"] == 2
        assert snap["counters"]["shard/3/runtime/hotspot_demotions"] == 1
        assert snap["histograms"]["obs/shard/3/band/promoted_group_size"]["sum"] == 8

    def test_hot_item_churn_counted(self):
        registry = MetricsRegistry()
        listener = HotspotChurnTelemetry(registry, "shard/3/band")
        group = SimpleNamespace(size=2)
        item = Interval(0.0, 1.0)
        listener.on_hot_items_added([(group, item), (group, item)])
        listener.on_hot_items_added([(group, item)])
        listener.on_hot_items_removed([(group, item)])
        assert registry.snapshot()["counters"] == {
            "shard/3/runtime/hotspot_demotions": 0,
            "shard/3/runtime/hotspot_items_added": 3,
            "shard/3/runtime/hotspot_items_removed": 1,
            "shard/3/runtime/hotspot_promotions": 0,
        }

    def test_tracker_hot_item_churn_flows_through(self):
        """Hot-item membership changes driven by a live tracker reach the
        listener's item counters, not just the promote/demote ones."""
        registry = MetricsRegistry()
        tracker = HotspotTracker(alpha=0.5)
        tracker.add_listener(HotspotChurnTelemetry(registry, "shard/0/band"))
        pile = [Interval(0.0, 10.0) for _ in range(12)]
        for interval in pile:
            tracker.insert(interval)
        # Inserts after promotion land on a hot group; members present
        # before the promotion fired are not retroactively counted.
        added = registry.snapshot()["counters"]["shard/0/runtime/hotspot_items_added"]
        assert 1 <= added <= len(pile)
        for interval in pile:
            tracker.delete(interval)
        counters = registry.snapshot()["counters"]
        assert counters["shard/0/runtime/hotspot_items_removed"] >= 1
        tracker.validate()
