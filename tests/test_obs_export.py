"""Tests for metric exposition: bucket math, interpolated quantiles,
Prometheus rendering, JSONL snapshot streams, and the HTTP endpoint."""

import json
import math
import urllib.request

import pytest

from repro.obs.export import (
    MetricsServer,
    SnapshotWriter,
    bucket_bounds,
    estimate_quantile,
    estimate_quantiles,
    latest_snapshot,
    read_snapshots,
    metric_help,
    render_prometheus,
    render_snapshot,
    sanitize_metric_name,
)
from repro.obs.tracing import RingTracer
from repro.runtime.metrics import N_HISTOGRAM_BUCKETS, Histogram, MetricsRegistry


class TestBucketBounds:
    def test_bucket_zero_is_unit_interval(self):
        assert bucket_bounds(0) == (0.0, 1.0)

    def test_power_of_two_buckets(self):
        assert bucket_bounds(1) == (1.0, 2.0)
        assert bucket_bounds(5) == (16.0, 32.0)

    def test_last_bucket_saturates(self):
        lo, hi = bucket_bounds(N_HISTOGRAM_BUCKETS - 1)
        assert lo == 2.0 ** (N_HISTOGRAM_BUCKETS - 2)
        assert math.isinf(hi)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bucket_bounds(-1)
        with pytest.raises(ValueError):
            bucket_bounds(N_HISTOGRAM_BUCKETS)


class TestEstimateQuantile:
    def test_empty_is_zero(self):
        assert estimate_quantile([], 0, 0.5) == 0.0

    def test_quantile_domain_checked(self):
        with pytest.raises(ValueError):
            estimate_quantile([[0, 1]], 1, 1.5)

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            estimate_quantile([[0, 1]], 10, 0.99)

    def test_single_bucket_interpolates_inside(self):
        # 4 observations in bucket 3 = [4, 8).
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            estimate = estimate_quantile([[3, 4]], 4, q)
            assert 4.0 <= estimate < 8.0

    def test_rank_walks_buckets(self):
        # 5 in [0,1), 5 in [2,4): the median is in the first bucket, p99
        # in the second.
        buckets = [[0, 5], [2, 5]]
        assert 0.0 <= estimate_quantile(buckets, 10, 0.5) < 1.0
        assert 2.0 <= estimate_quantile(buckets, 10, 0.99) < 4.0

    def test_saturated_top_bucket_returns_lower_bound(self):
        top = N_HISTOGRAM_BUCKETS - 1
        estimate = estimate_quantile([[top, 3]], 3, 0.99)
        assert estimate == bucket_bounds(top)[0]

    def test_empty_is_zero_for_every_quantile(self):
        for q in (0.0, 0.5, 1.0):
            assert estimate_quantile([], 0, q) == 0.0
            assert estimate_quantile([[3, 0]], 0, q) == 0.0

    def test_all_mass_in_one_bucket_stays_inside_it(self):
        # Every observation in bucket 5 = [16, 32): any quantile must land
        # in that bucket, q=0 at its lower bound, q=1 strictly below its
        # upper bound.
        lo, hi = bucket_bounds(5)
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            estimate = estimate_quantile([[5, 1000]], 1000, q)
            assert lo <= estimate < hi
        # ...and the estimates are monotone in q.
        low = estimate_quantile([[5, 1000]], 1000, 0.0)
        high = estimate_quantile([[5, 1000]], 1000, 1.0)
        assert low <= high

    def test_q_zero_and_one_clamp_to_data_range(self):
        # Mass in buckets 1=[1,2) and 3=[4,8): q=0 clamps into the lowest
        # occupied bucket, q=1 stays below the highest occupied bucket's
        # upper bound (never bleeds into empty buckets).
        buckets = [[1, 10], [3, 10]]
        bottom = estimate_quantile(buckets, 20, 0.0)
        assert 1.0 <= bottom < 2.0
        top = estimate_quantile(buckets, 20, 1.0)
        assert 4.0 <= top < 8.0

    def test_from_live_histogram_snapshot(self):
        h = Histogram()
        for value in [1.0, 2.0, 3.0, 100.0]:
            h.observe(value)
        quantiles = estimate_quantiles(h.snapshot())
        assert set(quantiles) == {"p50", "p95", "p99"}
        # p99's rank-4 value 100.0 lives in bucket 7, [64, 128).
        lo, hi = bucket_bounds(7)
        assert lo <= quantiles["p99"] < hi


class TestPrometheusRendering:
    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({"counters": {}, "gauges": {}, "histograms": {}}) == ""

    def test_sanitize(self):
        assert sanitize_metric_name("shard/0/batch_us") == "repro_shard_0_batch_us"
        assert sanitize_metric_name("x", prefix="") == "x"
        assert sanitize_metric_name("9lives", prefix="").startswith("_")

    def test_counter_gauge_histogram_lines(self):
        registry = MetricsRegistry()
        registry.counter("pipeline/events").inc(3)
        registry.gauge("queue").set(2.0)
        registry.histogram("lat").observe(5.0)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_pipeline_events_total counter" in text
        assert "repro_pipeline_events_total 3" in text
        assert "repro_queue 2" in text
        assert '# TYPE repro_lat summary' in text
        assert 'repro_lat{quantile="0.5"}' in text
        assert "repro_lat_sum 5" in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")

    def test_total_suffix_not_doubled(self):
        registry = MetricsRegistry()
        registry.counter("durability/wal_fsync_total").inc()
        text = render_prometheus(registry.snapshot())
        assert "repro_durability_wal_fsync_total 1" in text
        assert "_total_total" not in text

    def test_every_type_line_is_preceded_by_help(self):
        registry = MetricsRegistry()
        registry.counter("pipeline/events_applied").inc(3)
        registry.counter("some/novel_counter").inc()
        registry.gauge("runtime/queue_depth").set(2.0)
        registry.histogram("pipeline/e2e_us").observe(5.0)
        lines = render_prometheus(registry.snapshot()).splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# TYPE "):
                _, _, metric, _kind = line.split(" ")
                assert lines[i - 1].startswith(f"# HELP {metric} "), lines[i - 1]
                # HELP text is a sentence, not an empty stub.
                help_text = lines[i - 1].split(" ", 3)[3]
                assert help_text.strip().endswith(".")

    def test_known_names_get_specific_help(self):
        assert "latency" in metric_help("pipeline/e2e_us").lower()
        assert "promoted" in metric_help("shard/0/runtime/hotspot_promotions").lower()
        assert "fix-up" in metric_help("shard/2/runtime/rows_struck")
        assert "subscribed" in metric_help("shard/2/runtime/queries_struck")
        # Unknown names fall back to a generic but well-formed line.
        fallback = metric_help("totally/unknown_metric")
        assert "totally/unknown_metric" in fallback
        assert fallback.endswith(".")

    def test_help_lines_render_once_per_metric(self):
        registry = MetricsRegistry()
        registry.counter("a/events").inc()
        registry.counter("b/events").inc()
        text = render_prometheus(registry.snapshot())
        assert text.count("# HELP repro_a_events_total ") == 1
        assert text.count("# HELP repro_b_events_total ") == 1


class TestRenderSnapshot:
    def test_empty(self):
        assert render_snapshot({}) == "(no metrics recorded)"

    def test_includes_interpolated_percentiles(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(12)
        registry.histogram("lat").observe(3.0)
        text = render_snapshot(registry.snapshot())
        assert "events" in text and "12" in text
        assert "p95=" in text


class TestSnapshotStream:
    def test_writer_truncates_and_sequences(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        registry = MetricsRegistry()
        registry.counter("c").inc()
        writer = SnapshotWriter(path)
        writer.write(registry.snapshot())
        registry.counter("c").inc()
        writer.write(registry.snapshot(), extra={"spans_dropped": 0})
        records = read_snapshots(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["metrics"]["counters"]["c"] == 1
        assert records[1]["metrics"]["counters"]["c"] == 2
        assert records[1]["spans_dropped"] == 0
        assert all(r["uptime_us"] >= 0 for r in records)
        # A fresh writer documents a fresh run: the file restarts.
        SnapshotWriter(path)
        assert read_snapshots(path) == []

    def test_latest_snapshot_picks_highest_seq(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        registry = MetricsRegistry()
        writer = SnapshotWriter(path)
        for _ in range(3):
            writer.write(registry.snapshot())
        assert latest_snapshot(path)["seq"] == 2

    def test_latest_snapshot_empty_stream_rejected(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        SnapshotWriter(path)
        with pytest.raises(ValueError):
            latest_snapshot(path)

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "snaps.jsonl"
        path.write_text('{"seq": 0}\nnot json\n')
        with pytest.raises(ValueError, match=r":2:"):
            read_snapshots(str(path))


class TestSnapshotRotation:
    def _record_size(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        probe = str(tmp_path / "probe.jsonl")
        SnapshotWriter(probe).write(registry.snapshot())
        import os

        return os.path.getsize(probe)

    def test_rotates_at_max_bytes_and_reads_both_generations(self, tmp_path):
        import os

        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = str(tmp_path / "snaps.jsonl")
        # Room for ~3 records per generation.
        writer = SnapshotWriter(path, max_bytes=self._record_size(tmp_path) * 3 + 8)
        for _ in range(8):
            writer.write(registry.snapshot())
        assert writer.rotations >= 1
        assert os.path.exists(path + ".1")
        records = read_snapshots(path)
        seqs = [r["seq"] for r in records]
        # Reads span the rotation boundary, in order, ending at the newest.
        assert seqs == sorted(seqs)
        assert len(seqs) >= 4
        assert seqs[-1] == 7
        assert latest_snapshot(path)["seq"] == 7

    def test_only_one_previous_generation_kept(self, tmp_path):
        import os

        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = str(tmp_path / "snaps.jsonl")
        writer = SnapshotWriter(path, max_bytes=1)  # rotate on every write
        for _ in range(5):
            writer.write(registry.snapshot())
        assert writer.rotations == 5
        siblings = sorted(os.listdir(tmp_path))
        assert siblings == ["snaps.jsonl", "snaps.jsonl.1"]

    def test_no_rotation_without_max_bytes(self, tmp_path):
        import os

        registry = MetricsRegistry()
        path = str(tmp_path / "snaps.jsonl")
        writer = SnapshotWriter(path)
        for _ in range(50):
            writer.write(registry.snapshot())
        assert writer.rotations == 0
        assert not os.path.exists(path + ".1")

    def test_max_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotWriter(str(tmp_path / "s.jsonl"), max_bytes=0)

    def test_read_snapshots_without_rotation_file(self, tmp_path):
        registry = MetricsRegistry()
        path = str(tmp_path / "snaps.jsonl")
        writer = SnapshotWriter(path, max_bytes=10_000_000)
        writer.write(registry.snapshot())
        assert [r["seq"] for r in read_snapshots(path)] == [0]


class TestMetricsServer:
    def fetch(self, url):
        with urllib.request.urlopen(url) as response:
            return response.status, response.read().decode("utf-8")

    def test_routes(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(7)
        tracer = RingTracer(capacity=8)
        with tracer.span("probe"):
            pass
        with MetricsServer(registry, port=0, tracer=tracer) as server:
            status, prom = self.fetch(server.url + "/metrics")
            assert status == 200 and "repro_hits_total 7" in prom
            status, root = self.fetch(server.url + "/")
            assert root == prom
            status, raw = self.fetch(server.url + "/metrics.json")
            assert json.loads(raw)["counters"]["hits"] == 7
            status, trace = self.fetch(server.url + "/trace.json")
            loaded = json.loads(trace)
            assert loaded["traceEvents"][0]["name"] == "probe"

    def test_serves_the_published_copy_only(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(1)
        tracer = RingTracer(capacity=8)
        with tracer.span("first"):
            pass
        with MetricsServer(registry, port=0, tracer=tracer) as server:
            # Writes after a publish stay invisible until the next one.
            registry.counter("hits").inc(10)
            with tracer.span("second"):
                pass
            _, raw = self.fetch(server.url + "/metrics.json")
            assert json.loads(raw)["counters"]["hits"] == 1
            _, trace = self.fetch(server.url + "/trace.json")
            assert [e["name"] for e in json.loads(trace)["traceEvents"]] == ["first"]

            server.publish(registry.snapshot(), tracer.export_copy())
            _, raw = self.fetch(server.url + "/metrics.json")
            assert json.loads(raw)["counters"]["hits"] == 11
            _, prom = self.fetch(server.url + "/metrics")
            assert "repro_hits_total 11" in prom
            _, trace = self.fetch(server.url + "/trace.json")
            loaded = json.loads(trace)
            assert [e["name"] for e in loaded["traceEvents"]] == ["first", "second"]
            assert loaded["otherData"] == {
                "dropped_spans": 0, "trace_id": tracer.trace_id,
            }

            # A publish without spans withdraws the trace route.
            server.publish(registry.snapshot())
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                self.fetch(server.url + "/trace.json")
            assert exc_info.value.code == 404

    def test_responses_carry_the_publish_stamp(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            def stamp():
                with urllib.request.urlopen(server.url + "/metrics.json") as response:
                    return (
                        int(response.headers["X-Repro-Seq"]),
                        int(response.headers["X-Repro-Uptime-Us"]),
                    )

            first = stamp()
            assert first[0] == 0 and stamp() == first
            server.publish(MetricsRegistry().snapshot())
            second = stamp()
            assert second[0] == 1 and second[1] >= first[1]

    def test_unknown_route_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                self.fetch(server.url + "/nope")
            assert exc_info.value.code == 404

    def test_trace_route_absent_without_tracer(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                self.fetch(server.url + "/trace.json")
            assert exc_info.value.code == 404
