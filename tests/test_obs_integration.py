"""End-to-end observability: ``repro serve`` with tracing/snapshots through
``cli.main``, trace structure validation, and the ``repro stats`` verb
against both the JSONL stream and a live HTTP endpoint."""

import json
import urllib.request

import pytest

from repro.cli import main
from repro.obs.export import MetricsServer, latest_snapshot, render_snapshot
from repro.runtime.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One small durable serve run with every obs surface enabled."""
    root = tmp_path_factory.mktemp("obs")
    trace_path = root / "trace.json"
    snap_path = root / "snaps.jsonl"
    wal_dir = root / "wal"
    code = main([
        "serve",
        "--events", "600", "--queries", "120", "--shards", "2",
        "--batch-size", "32", "--report-every", "200", "--seed", "5",
        "--wal-dir", str(wal_dir),
        "--trace-out", str(trace_path),
        "--snapshot-out", str(snap_path),
    ])
    assert code == 0
    return {"trace": trace_path, "snaps": snap_path}


class TestServeTrace:
    def test_trace_is_valid_chrome_json(self, served):
        trace = json.loads(served["trace"].read_text())
        assert set(trace) >= {"traceEvents", "displayTimeUnit", "otherData"}
        events = trace["traceEvents"]
        assert events, "serve recorded no spans"
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["tid"], int)

    def test_span_taxonomy_present(self, served):
        events = json.loads(served["trace"].read_text())["traceEvents"]
        names = {event["name"] for event in events}
        assert names >= {"batch", "shard.apply", "wal.sync"}
        # A WAL append is per event, and no per-event span is recorded.
        assert "wal.append" not in names

    def test_span_tree_nesting(self, served):
        """Every shard.apply sits inside a batch window."""
        events = json.loads(served["trace"].read_text())["traceEvents"]
        batches = [e for e in events if e["name"] == "batch"]
        applies = [e for e in events if e["name"] == "shard.apply"]
        assert batches and applies

        def inside(inner, outer):
            return (
                outer["ts"] <= inner["ts"]
                and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
            )

        for apply_event in applies:
            assert any(inside(apply_event, b) for b in batches)
            assert apply_event["args"]["shard"] == 0
            assert apply_event["args"]["events"] >= 1


class TestSnapshotsAndStats:
    def test_hotspot_telemetry_exported(self, served):
        record = latest_snapshot(str(served["snaps"]))
        metrics = record["metrics"]
        counter_names = set(metrics["counters"])
        assert "shard/0/runtime/hotspot_promotions" in counter_names
        assert any(name.endswith("/reconstructions") for name in counter_names)
        gauges = metrics["gauges"]
        # Inline, --shards 2 builds one shard: nothing is named for shard 1.
        assert not [
            name for section in metrics.values() for name in section
            if name.startswith(("shard/1/", "obs/shard/1/"))
        ]
        for plane in ("shard/0/band", "shard/0/select"):
            assert f"obs/{plane}/tau" in gauges
            assert gauges[f"obs/{plane}/headroom"] >= 0.0
        # Reconstruction durations are a first-class histogram.
        assert any(
            name.endswith("/reconstruction_us") for name in metrics["histograms"]
        )
        assert record["spans_dropped"] == 0

    def test_stats_text_roundtrips_render_snapshot(self, served, capsys):
        assert main(["stats", "--jsonl", str(served["snaps"])]) == 0
        out = capsys.readouterr().out
        record = latest_snapshot(str(served["snaps"]))
        assert render_snapshot(record["metrics"]) in out
        assert f"seq={record['seq']}" in out

    def test_stats_prom_format(self, served, capsys):
        assert main(["stats", "--jsonl", str(served["snaps"]), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_durability_wal_fsync_total counter" in out
        assert "_total_total" not in out
        assert 'quantile="0.5"' in out

    def test_stats_json_format(self, served, capsys):
        assert main(["stats", "--jsonl", str(served["snaps"]), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert "counters" in parsed and "histograms" in parsed

    def test_stats_seq_selection(self, served, capsys):
        assert main(["stats", "--jsonl", str(served["snaps"]), "--seq", "0"]) == 0
        assert "seq=0" in capsys.readouterr().out
        assert main(["stats", "--jsonl", str(served["snaps"]), "--seq", "999"]) == 1
        assert "no snapshot" in capsys.readouterr().err

    def test_stats_requires_exactly_one_source(self, served, capsys):
        assert main(["stats"]) == 2
        capsys.readouterr()
        assert main([
            "stats", "--jsonl", str(served["snaps"]), "--url", "http://x",
        ]) == 2

    def test_stats_missing_file(self, capsys, tmp_path):
        assert main(["stats", "--jsonl", str(tmp_path / "absent.jsonl")]) == 1
        assert "stats:" in capsys.readouterr().err


class TestStatsLiveEndpoint:
    def test_stats_url_against_live_server(self, capsys):
        registry = MetricsRegistry()
        registry.counter("live/hits").inc(41)
        with MetricsServer(registry, port=0) as server:
            assert main(["stats", "--url", server.url]) == 0
            out = capsys.readouterr().out
            assert "live/hits" in out and "41" in out
            assert main(["stats", "--url", server.url, "--format", "prom"]) == 0
            assert "repro_live_hits_total 41" in capsys.readouterr().out

    def test_stats_url_header_shows_the_publish_seq(self, capsys):
        registry = MetricsRegistry()
        with MetricsServer(registry, port=0) as server:
            server.publish(registry.snapshot())
            assert main(["stats", "--url", server.url]) == 0
            assert "snapshot seq=1 " in capsys.readouterr().out

    def test_stats_url_connection_error(self, capsys):
        # A closed server: pick a port by binding then closing.
        registry = MetricsRegistry()
        server = MetricsServer(registry, port=0)
        url = server.url
        server.close()
        assert main(["stats", "--url", url]) == 1
        assert "stats:" in capsys.readouterr().err


class TestServeMetricsPort:
    def test_serve_exposes_live_endpoint(self, tmp_path, capsys, monkeypatch):
        """--metrics-port 0 binds an ephemeral port and prints its URL;
        the endpoint serves what serve publishes while the run is in
        flight, and the trace is still written on exit."""
        publishes, fetched = [], []
        publish = MetricsServer.publish

        def publish_then_fetch(server, snapshot, spans=None):
            publish(server, snapshot, spans)
            publishes.append(snapshot)
            # The constructor publishes once; the third call is the second
            # --report-every boundary, with the run still in flight.
            if len(publishes) == 3:
                with urllib.request.urlopen(server.url + "/metrics.json") as response:
                    fetched.append(json.loads(response.read().decode("utf-8")))

        monkeypatch.setattr(MetricsServer, "publish", publish_then_fetch)
        trace_path = tmp_path / "trace.json"
        code = main([
            "serve",
            "--events", "400", "--queries", "40", "--shards", "2",
            "--report-every", "100", "--seed", "5",
            "--metrics-port", "0",
            "--trace-out", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "metrics server listening on http://127.0.0.1:" in out
        assert len(fetched) == 1
        assert fetched[0]["counters"]["pipeline/events_applied"] >= 100
        assert fetched[0]["counters"]["pipeline/events_applied"] < 400
        assert trace_path.exists()
        names = {
            e["name"] for e in json.loads(trace_path.read_text())["traceEvents"]
        }
        assert "batch" in names and "shard.apply" in names
