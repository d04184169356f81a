"""Unit tests for cross-process telemetry: the worker-side delta
collector and the parent-side merge (``repro.obs.remote``)."""

import math

import pytest

from repro.core.intervals import Interval
from repro.engine.queries import BandJoinQuery
from repro.obs.remote import TelemetryCollector, merge_telemetry
from repro.obs.tracing import RingTracer, SpanRecord
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.sharding import ShardGroup
from repro.runtime.transport.frames import (
    FrameError,
    HistogramDelta,
    TelemetryPayload,
    decode_frame,
    encode_telemetry_frame,
)


def ship(registry, payload):
    """Send ``payload`` through a TELEMETRY frame and merge it."""
    _, decoded = decode_frame(encode_telemetry_frame(payload))
    merge_telemetry(registry, None, decoded)


class TestMergedMetricName:
    """The parent keeps every worker metric under the name it arrived with;
    the worker gives it its shard's scope where it is created."""

    def test_unscoped_names_gain_shard_prefix(self):
        worker = MetricsRegistry()
        group = ShardGroup(3, alpha=0.5, metrics=worker)
        # Co-stabbed band queries form one dominant group -> promote.
        group.shard.subscribe(
            *(BandJoinQuery(Interval(-1.0, 1.0), qid=q) for q in range(12))
        )
        parent = MetricsRegistry()
        ship(parent, TelemetryCollector(3, worker, RingTracer(capacity=8)).collect())
        snap = parent.snapshot()
        assert snap["counters"]["shard/3/runtime/hotspot_promotions"] >= 1
        names = [name for section in snap.values() for name in section]
        assert names and all("shard/3/" in f"/{name}" for name in names)

    def test_shard_scoped_names_pass_through(self):
        parent = MetricsRegistry()
        ship(parent, TelemetryPayload(
            pid=1, shard=3, gauges={"obs/shard/3/band/headroom": 5.0}
        ))
        ship(parent, TelemetryPayload(pid=1, shard=2, counters={"shard/2/batch_us": 7}))
        snap = parent.snapshot()
        assert snap["gauges"]["obs/shard/3/band/headroom"] == 5.0
        assert snap["counters"] == {"shard/2/batch_us": 7}

    def test_other_shards_number_still_prefixes(self):
        # A name scoped to a DIFFERENT shard is not this worker's scope:
        # the decoder refuses it before the parent could fold it.
        payload = TelemetryPayload(
            pid=1, shard=2, gauges={"obs/shard/1/band/headroom": 5.0}
        )
        with pytest.raises(FrameError, match="shard/2/ scope"):
            ship(MetricsRegistry(), payload)


class TestTelemetryCollector:
    def build(self):
        registry = MetricsRegistry()
        tracer = RingTracer(capacity=64)
        return registry, tracer, TelemetryCollector(0, registry, tracer)

    def test_first_collect_ships_everything(self):
        registry, tracer, collector = self.build()
        registry.counter("runtime/x").inc(5)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
        with tracer.span("worker.batch"):
            pass
        payload = collector.collect()
        assert payload.pid == tracer.pid
        assert payload.shard == 0
        assert payload.trace_id == tracer.trace_id
        assert payload.counters == {"runtime/x": 5}
        assert payload.gauges["g"] == 1.5
        assert payload.histograms["h"].count == 1
        assert [s.name for s in payload.spans] == ["worker.batch"]

    def test_second_collect_ships_only_the_delta(self):
        registry, tracer, collector = self.build()
        registry.counter("runtime/x").inc(5)
        registry.histogram("h").observe(3.0)
        collector.collect()
        # Nothing new: empty delta.
        payload = collector.collect()
        assert payload.counters == {}
        assert payload.histograms == {}
        assert payload.spans == []
        # New activity: only the increment travels.
        registry.counter("runtime/x").inc(2)
        registry.histogram("h").observe(100.0)
        payload = collector.collect()
        assert payload.counters == {"runtime/x": 2}
        assert payload.histograms["h"].count == 1
        assert payload.histograms["h"].total == 100.0

    def test_gauges_always_ship_as_absolutes(self):
        registry, _tracer, collector = self.build()
        registry.gauge("depth").set(7.0)
        assert collector.collect().gauges["depth"] == 7.0
        # Unchanged gauges still ship (they are point-in-time values).
        assert collector.collect().gauges["depth"] == 7.0


class TestMergeTelemetry:
    def test_merges_counters_gauges_histograms_and_spans(self):
        parent_registry = MetricsRegistry()
        parent_tracer = RingTracer(capacity=64)
        payload = TelemetryPayload(
            pid=4242,
            shard=1,
            trace_id=parent_tracer.trace_id,
            spans_dropped=3,
            spans=[
                SpanRecord(
                    name="worker.batch", ts_ns=10, dur_ns=5, tid=1,
                    pid=4242, trace_id=parent_tracer.trace_id,
                    span_id=9, parent_id=2,
                )
            ],
            counters={"shard/1/runtime/hotspot_promotions": 4},
            gauges={"obs/shard/1/band/headroom": 55.0},
            histograms={
                "shard/1/worker/e2e/ingest_to_apply_us": HistogramDelta(
                    count=2, total=12.0, min_value=4.0, max_value=8.0,
                    buckets=[(3, 2)],
                )
            },
        )
        merge_telemetry(parent_registry, parent_tracer, payload)
        snap = parent_registry.snapshot()
        assert snap["counters"]["shard/1/runtime/hotspot_promotions"] == 4
        assert snap["gauges"]["obs/shard/1/band/headroom"] == 55.0
        assert snap["gauges"]["shard/1/obs/spans_dropped"] == 3
        merged = snap["histograms"]["shard/1/worker/e2e/ingest_to_apply_us"]
        assert merged["count"] == 2
        assert merged["sum"] == 12.0
        assert merged["min"] == 4.0 and merged["max"] == 8.0
        [span] = parent_tracer.snapshot()
        assert span.pid == 4242 and span.span_id == 9

    def test_merge_is_additive_across_payloads(self):
        registry = MetricsRegistry()
        delta = TelemetryPayload(
            pid=1, shard=0,
            counters={"shard/0/runtime/x": 1},
            histograms={
                "shard/0/h": HistogramDelta(
                    count=1, total=3.0, min_value=3.0, max_value=3.0,
                    buckets=[(2, 1)],
                )
            },
        )
        merge_telemetry(registry, None, delta)
        merge_telemetry(registry, None, delta)
        snap = registry.snapshot()
        assert snap["counters"]["shard/0/runtime/x"] == 2
        assert snap["histograms"]["shard/0/h"]["count"] == 2
        assert snap["histograms"]["shard/0/h"]["sum"] == 6.0

    def test_none_tracer_drops_spans_but_merges_metrics(self):
        registry = MetricsRegistry()
        payload = TelemetryPayload(
            pid=1, shard=0,
            spans=[SpanRecord(name="s", ts_ns=0, dur_ns=1, tid=1, pid=1)],
            counters={"shard/0/c": 1},
        )
        merge_telemetry(registry, None, payload)
        assert registry.snapshot()["counters"]["shard/0/c"] == 1

    def test_collect_then_merge_roundtrip_preserves_quantile_shape(self):
        worker_registry = MetricsRegistry()
        worker_tracer = RingTracer(capacity=64)
        collector = TelemetryCollector(2, worker_registry, worker_tracer)
        for value in (10.0, 20.0, 500.0, 9_000.0):
            worker_registry.histogram("shard/2/worker/e2e/ingest_to_apply_us").observe(value)
        parent = MetricsRegistry()
        merge_telemetry(parent, None, collector.collect())
        merged = parent.snapshot()["histograms"][
            "shard/2/worker/e2e/ingest_to_apply_us"
        ]
        original = worker_registry.snapshot()["histograms"][
            "shard/2/worker/e2e/ingest_to_apply_us"
        ]
        assert merged["count"] == original["count"]
        assert math.isclose(merged["sum"], original["sum"])
        assert merged["buckets"] == original["buckets"]
        assert merged["min"] == original["min"]
        assert merged["max"] == original["max"]
