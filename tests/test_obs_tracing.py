"""Tests for the tracing span API: null fast path, ring-buffer semantics,
Chrome trace export."""

import json
import threading

import pytest

import os

from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    RingTracer,
    SpanRecord,
    new_trace_id,
    to_chrome_trace,
    write_chrome_trace,
)


class TestNullTracer:
    def test_span_is_shared_singleton(self):
        a = NULL_TRACER.span("x")
        b = NULL_TRACER.span("y", shard=3)
        assert a is b  # no allocation per span when tracing is off

    def test_span_is_inert_context_manager(self):
        with NULL_TRACER.span("anything") as span:
            assert span is NULL_TRACER.span("other")

    def test_fresh_instances_share_the_span(self):
        assert NullTracer().span("a") is NULL_TRACER.span("b")


class TestRingTracer:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingTracer(capacity=0)

    def test_records_closed_spans(self):
        tracer = RingTracer(capacity=8)
        with tracer.span("outer", shard=1):
            pass
        assert tracer.recorded == 1
        assert tracer.dropped == 0
        [record] = tracer.snapshot()
        assert record.name == "outer"
        assert record.args == {"shard": 1}
        assert record.dur_ns >= 0
        assert record.tid == threading.get_ident()
        assert record.end_ns == record.ts_ns + record.dur_ns

    def test_no_args_stored_as_none(self):
        tracer = RingTracer(capacity=4)
        with tracer.span("bare"):
            pass
        [record] = tracer.snapshot()
        assert record.args is None

    def test_nested_spans_close_inner_first(self):
        tracer = RingTracer(capacity=8)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [record.name for record in tracer.snapshot()]
        assert names == ["inner", "outer"]
        inner, outer = tracer.snapshot()
        # The inner span's window sits inside the outer one.
        assert outer.ts_ns <= inner.ts_ns
        assert inner.end_ns <= outer.end_ns

    def test_overflow_overwrites_oldest_and_counts_drops(self):
        tracer = RingTracer(capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        names = [record.name for record in tracer.snapshot()]
        assert names == ["s6", "s7", "s8", "s9"]  # oldest first, newest kept

    def test_snapshot_below_capacity_in_order(self):
        tracer = RingTracer(capacity=16)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.snapshot()] == [f"s{i}" for i in range(5)]

    def test_span_survives_exception(self):
        tracer = RingTracer(capacity=4)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [r.name for r in tracer.snapshot()] == ["doomed"]

    def test_manual_enter_exit_pair(self):
        """Start/stop across separate callbacks (the rebuild-listener use)."""
        tracer = RingTracer(capacity=4)
        span = tracer.span("manual")
        span.__enter__()
        span.__exit__(None, None, None)
        assert [r.name for r in tracer.snapshot()] == ["manual"]


class TestChromeTraceExport:
    def make_spans(self):
        return [
            SpanRecord(name="a", ts_ns=5_000, dur_ns=2_000, tid=7),
            SpanRecord(name="b", ts_ns=6_000, dur_ns=500, tid=8, args={"k": 1}),
        ]

    def test_events_rebased_to_microseconds(self):
        trace = to_chrome_trace(self.make_spans())
        assert trace["displayTimeUnit"] == "ms"
        first, second = trace["traceEvents"]
        assert first == {
            "name": "a", "ph": "X", "ts": 0.0, "dur": 2.0, "pid": 1, "tid": 7,
        }
        assert second["ts"] == 1.0 and second["args"] == {"k": 1}

    def test_empty_spans(self):
        assert to_chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_ring_tracer_export_reports_drops(self):
        tracer = RingTracer(capacity=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        trace = tracer.to_chrome_trace()
        assert trace["otherData"]["dropped_spans"] == 3
        assert trace["otherData"]["trace_id"] == tracer.trace_id
        assert len(trace["traceEvents"]) == 2

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        tracer = RingTracer(capacity=8)
        with tracer.span("phase", shard=0):
            pass
        written = write_chrome_trace(str(path), tracer)
        assert written == 1
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"][0]["name"] == "phase"
        assert loaded["otherData"]["dropped_spans"] == 0

    def test_write_chrome_trace_accepts_plain_spans(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(str(path), self.make_spans())
        assert written == 2
        loaded = json.loads(path.read_text())
        assert "otherData" not in loaded


class TestTracePropagation:
    def test_new_trace_id_is_nonzero_and_63_bit(self):
        for _ in range(50):
            tid = new_trace_id()
            assert 0 < tid < 2**63

    def test_tracer_mints_trace_id_and_stamps_spans(self):
        tracer = RingTracer(capacity=4)
        assert tracer.trace_id != 0
        with tracer.span("x"):
            pass
        [record] = tracer.snapshot()
        assert record.trace_id == tracer.trace_id
        assert record.pid == os.getpid()
        assert record.span_id != 0

    def test_adopt_trace_id(self):
        tracer = RingTracer(capacity=4)
        tracer.adopt_trace_id(42)
        assert tracer.trace_id == 42
        tracer.adopt_trace_id(0)  # zero = "no context", ignored
        assert tracer.trace_id == 42
        with tracer.span("x"):
            pass
        assert tracer.snapshot()[0].trace_id == 42

    def test_remote_parent_stamps_top_level_spans(self):
        tracer = RingTracer(capacity=8)
        tracer.set_remote_parent(777)
        with tracer.span("top"):
            pass
        [record] = tracer.snapshot()
        assert record.parent_id == 777

    def test_open_span_exposes_its_id_for_propagation(self):
        tracer = RingTracer(capacity=8)
        with tracer.span("roundtrip") as span:
            assert span.span_id != 0  # readable while open (BATCH stamping)
        [record] = tracer.snapshot()
        assert record.span_id == span.span_id

    def test_span_ids_are_unique_and_pid_scoped(self):
        tracer = RingTracer(capacity=16)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        ids = [r.span_id for r in tracer.snapshot()]
        assert len(set(ids)) == 5
        assert all(sid >> 24 == os.getpid() for sid in ids)

    def test_record_foreign_span_preserves_identity(self):
        tracer = RingTracer(capacity=4)
        foreign = SpanRecord(
            name="worker.batch", ts_ns=10, dur_ns=5, tid=1,
            pid=99999, trace_id=tracer.trace_id, span_id=7, parent_id=3,
        )
        tracer.record(foreign)
        [record] = tracer.snapshot()
        assert record.pid == 99999
        assert record.span_id == 7

    def test_since_returns_only_fresh_spans(self):
        tracer = RingTracer(capacity=16)
        with tracer.span("a"):
            pass
        fresh, seen = tracer.since(0)
        assert [r.name for r in fresh] == ["a"] and seen == 1
        with tracer.span("b"):
            pass
        fresh, seen = tracer.since(seen)
        assert [r.name for r in fresh] == ["b"] and seen == 2
        fresh, seen = tracer.since(seen)
        assert fresh == [] and seen == 2

    def test_process_lanes_emit_metadata_events(self):
        tracer = RingTracer(capacity=8)
        tracer.set_process_name(tracer.pid, "pipeline (parent)")
        tracer.set_process_name(4242, "shard0 worker (pid 4242)")
        with tracer.span("x"):
            pass
        trace = tracer.to_chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        named = {
            e["pid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "process_name"
        }
        assert named[tracer.pid] == "pipeline (parent)"
        assert named[4242] == "shard0 worker (pid 4242)"
        # metadata sorts before the X events
        assert trace["traceEvents"][0]["ph"] == "M"

    def test_x_events_carry_trace_context_args(self):
        tracer = RingTracer(capacity=4)
        with tracer.span("x", shard=1):
            pass
        trace = tracer.to_chrome_trace()
        [event] = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event["pid"] == os.getpid()
        assert event["args"]["shard"] == 1
        assert event["args"]["trace_id"] == tracer.trace_id
        assert event["args"]["span_id"] != 0
