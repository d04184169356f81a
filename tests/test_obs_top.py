"""Tests for the ``repro top`` dashboard: record fetchers, shard
discovery, frame rendering, rate math, and the refresh loop."""

import json
import urllib.request

import pytest

from repro.obs.export import MetricsServer, SnapshotWriter
from repro.obs.top import (
    CLEAR_SCREEN,
    fetch_record_from_jsonl,
    fetch_record_from_url,
    render_dashboard,
    shard_indices,
    watch,
)
from repro.core.intervals import Interval
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.pipeline import EventPipeline


def make_registry():
    m = MetricsRegistry()
    m.counter("pipeline/events_applied").inc(1_000)
    m.counter("pipeline/results_produced").inc(250)
    m.counter("pipeline/batches").inc(40)
    m.counter("shard/0/runtime/hotspot_promotions").inc(7)
    m.counter("shard/0/runtime/hotspot_demotions").inc(2)
    for value in (50, 120, 300, 900, 2_500):
        m.histogram("pipeline/e2e_us").observe(float(value))
    m.histogram("shard/1/worker/e2e/ingest_to_apply_us").observe(80.0)
    m.counter("shard/0/events").inc(600)
    m.gauge("transport/ring/0/request_bytes").set(0.0)
    m.gauge("transport/ring/0/response_bytes").set(12.0)
    m.gauge("obs/shard/0/band/headroom").set(12.5)
    return m


class TestShardDiscovery:
    def test_finds_every_prefix_style(self):
        metrics = make_registry().snapshot()
        # shard/<N>/... (parent or merged worker), obs/shard/0/... and
        # transport/ring/0/... all count.
        assert shard_indices(metrics) == [0, 1]

    def test_empty_metrics(self):
        assert shard_indices({}) == []
        assert shard_indices({"counters": {"pipeline/events": 3}}) == []


class TestRenderDashboard:
    def record(self):
        return {"seq": 4, "uptime_us": 5_000_000, "metrics": make_registry().snapshot()}

    def test_headline_sections_present(self):
        frame = render_dashboard(self.record())
        assert frame.startswith("repro top")
        assert "snapshot #4" in frame
        assert "uptime 5.0s" in frame
        assert "applied 1,000" in frame
        assert "e2e latency (us): p50" in frame
        assert "7 promotions" in frame and "2 demotions" in frame

    def test_shard_table_rows(self):
        frame = render_dashboard(self.record())
        lines = frame.splitlines()
        assert any(line.strip().startswith("shard") for line in lines)
        shard_rows = [l for l in lines if l.startswith("  0") or l.startswith("  1")]
        assert len(shard_rows) == 2
        # One latency column: the workers' lag.  The parent's e2e latency
        # is one number for all shards and has its own line above.
        assert "lag p95" in frame and "e2e p95" not in frame
        # shard 0 has parent-side data, shard 1 only merged worker lag
        assert "600" in shard_rows[0]
        assert shard_rows[0].split()[2] == "-" and shard_rows[1].split()[2] != "-"
        assert "0/12" in shard_rows[0]
        assert "12.5/-" in shard_rows[0]

    def test_a_plane_without_queries_shows_no_headroom(self):
        """An empty tracker's I2 budget is 2/alpha with nothing under it,
        so a plane that holds no query reads ``-``: with no band query,
        the one inline shard's band plane reads ``-`` beside its select
        plane's number, and with no query at all its whole cell is ``-``.
        Inline, ``num_shards=2`` builds one shard, so there is no row 1."""
        band_query = BandJoinQuery(Interval(-5.0, 5.0))
        select_query = SelectJoinQuery(Interval(0.0, 100.0), Interval(0.0, 10_000.0))

        def headroom_cells(*queries):
            registry = MetricsRegistry()
            with EventPipeline(num_shards=2, alpha=0.05, metrics=registry) as pipeline:
                for query in queries:
                    pipeline.subscribe(query)
                pipeline.drain()
                pipeline.sample_hotspots()
            frame = render_dashboard({"metrics": registry.snapshot()})
            rows = {
                line.split()[0]: line.split()[-1]
                for line in frame.splitlines()
                if line.startswith("  0 ") or line.startswith("  1 ")
            }
            assert list(rows) == ["0"]
            return rows["0"]

        band, select = headroom_cells(band_query, select_query).split("/")
        assert band != "-" and select != "-"
        band, select = headroom_cells(select_query).split("/")
        assert band == "-" and select != "-"
        assert headroom_cells() == "-"

    def test_rates_need_a_previous_record(self):
        record = self.record()
        first = render_dashboard(record)
        assert "throughput: - ev/s" in first
        prev = json.loads(json.dumps(record))
        prev["uptime_us"] = record["uptime_us"] - 2_000_000
        prev["metrics"]["counters"]["pipeline/events_applied"] -= 500
        second = render_dashboard(record, prev)
        assert "throughput: 250.0 ev/s" in second

    def test_no_samples_yet(self):
        frame = render_dashboard({"metrics": {}})
        assert "(no samples yet)" in frame
        assert "throughput: - ev/s" in frame

    def test_faults_line_sums_parent_and_worker_counters(self):
        record = self.record()
        record["metrics"]["counters"].update(
            {
                "transport/frame_errors": 2,
                "shard/1/transport/frame_errors": 1,
                "transport/ring_timeouts": 4,
                "durability/wal_torn_tail_total": 1,
            }
        )
        frame = render_dashboard(record)
        assert "faults: frame errors 3   ring timeouts 4   torn WAL tails 1" in frame
        assert "faults: frame errors 0" in render_dashboard({"metrics": {}})

    def test_dropped_spans_warning(self):
        record = self.record()
        record["spans_dropped"] = 12
        assert "12 tracing spans dropped" in render_dashboard(record)


class TestFetchers:
    def test_jsonl_fetcher_returns_latest(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        writer = SnapshotWriter(path)
        registry = make_registry()
        writer.write(registry.snapshot())
        writer.write(registry.snapshot())
        record = fetch_record_from_jsonl(path)
        assert record["seq"] == 1
        assert "pipeline/events_applied" in record["metrics"]["counters"]

    def test_url_fetcher_wraps_metrics_json(self):
        registry = make_registry()
        server = MetricsServer(registry, port=0)
        try:
            record = fetch_record_from_url(server.url)
            assert record["metrics"]["counters"]["pipeline/events_applied"] == 1_000
            # Accepts the explicit route too; the publish stamp rides along.
            record = fetch_record_from_url(server.url + "/metrics.json")
            assert record["seq"] == 0 and record["uptime_us"] >= 0
        finally:
            server.close()

    def test_url_rates_span_publishes_not_fetches(self):
        """Two fetches of one publish are no interval: the dashboard shows
        no rate, not 0, and the next publish's rate is taken over the
        publishes' own clock."""
        registry = make_registry()
        with MetricsServer(registry, port=0) as server:
            first = fetch_record_from_url(server.url)
            first["_fetched_at_ns"] = 1
            again = fetch_record_from_url(server.url)
            again["_fetched_at_ns"] = 2_000_000_000
            assert again["uptime_us"] == first["uptime_us"]
            assert "throughput: - ev/s" in render_dashboard(again, first)

            registry.counter("pipeline/events_applied").inc(500)
            server.publish(registry.snapshot())
            fresh = fetch_record_from_url(server.url)
            fresh["_fetched_at_ns"] = 3_000_000_000
            assert fresh["seq"] == 1 and fresh["uptime_us"] > first["uptime_us"]
            frame = render_dashboard(fresh, again)
            assert "throughput: - ev/s" not in frame
            assert "throughput: 0.0 ev/s" not in frame


class TestWatchLoop:
    def test_renders_requested_iterations(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        SnapshotWriter(path).write(make_registry().snapshot())
        frames = []
        n = watch(
            lambda: fetch_record_from_jsonl(path),
            render_dashboard,
            interval=0.0,
            iterations=3,
            out=frames.append,
            clear=False,
        )
        assert n == 3
        assert len(frames) == 3
        assert all(f.startswith("repro top") for f in frames)

    def test_clear_mode_prefixes_ansi(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        SnapshotWriter(path).write(make_registry().snapshot())
        frames = []
        watch(
            lambda: fetch_record_from_jsonl(path),
            render_dashboard,
            interval=0.0,
            iterations=1,
            out=frames.append,
        )
        assert frames[0].startswith(CLEAR_SCREEN)

    def test_fetch_errors_do_not_kill_the_loop(self, tmp_path):
        missing = str(tmp_path / "never-written.jsonl")
        frames = []
        n = watch(
            lambda: fetch_record_from_jsonl(missing),
            render_dashboard,
            interval=0.0,
            iterations=2,
            out=frames.append,
        )
        assert n == 2
        assert all("waiting for metrics" in f for f in frames)

    def test_second_frame_sees_rates(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        writer = SnapshotWriter(path)
        registry = make_registry()
        writer.write(registry.snapshot())
        frames = []

        def fetch():
            registry.counter("pipeline/events_applied").inc(100)
            writer.write(registry.snapshot())
            return fetch_record_from_jsonl(path)

        watch(fetch, render_dashboard, interval=0.0, iterations=2,
              out=frames.append, clear=False)
        assert "throughput: - ev/s" in frames[0]
        assert "throughput: - ev/s" not in frames[1]


class TestCli:
    def test_top_requires_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["top"]) == 2
        assert main(["top", "--jsonl", "a", "--url", "b"]) == 2

    def test_top_renders_from_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "snaps.jsonl")
        SnapshotWriter(path).write(make_registry().snapshot())
        assert main(["top", "--jsonl", path, "--iterations", "1",
                     "--interval", "0", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro top")
        assert "e2e latency (us)" in out

    def test_stats_watch_renders_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "snaps.jsonl")
        SnapshotWriter(path).write(make_registry().snapshot())
        assert main(["stats", "--jsonl", path, "--watch", "0",
                     "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "snapshot seq=0" in out
        assert "pipeline/events_applied" in out

    def test_stats_watch_rejects_other_formats(self, tmp_path):
        from repro.cli import main

        assert main(["stats", "--jsonl", "x", "--watch", "1",
                     "--format", "prom"]) == 2
