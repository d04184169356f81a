"""Shared-memory transport: ring semantics, lifecycle, and crash paths.

The transport's contract (``docs/RUNTIME.md``) in test form:

* the SPSC ring blocks on backpressure — frames are never dropped — and
  raises :class:`RingTimeoutError` only when the caller bounded the wait;
* ``close``/``unlink`` are idempotent on rings and on the pipeline, and a
  closed process-shm pipeline leaves zero worker processes and zero
  shared-memory segments behind, even when a worker was killed mid-run;
* validation fails loudly: foreign segments, layout-version mismatches,
  forged all-zero headers (the transient-zero-page hazard the seeded CRC
  exists for), and worker-side decode errors all surface as typed
  ``TransportError`` subclasses rather than hangs or silent drops;
* the process-shm data plane is delta-for-delta equivalent to inline mode
  on a mixed insert/delete/subscribe stream.
"""

import contextlib
import multiprocessing
import re
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.intervals import Interval
from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.engine.queries import BandJoinQuery
from repro.engine.table import RTuple, STuple
from repro.runtime.pipeline import EventPipeline
from repro.runtime.replay import StreamProfile, generate_mixed_stream, run_replay
from repro.runtime.transport import frames
from repro.runtime.transport.shm import (
    _DATA,
    _FRAME,
    _OFF_TAIL,
    _U64,
    FrameCorruptionError,
    RingTimeoutError,
    ShmRing,
    TransportError,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def _r_insert(rid, a=10.0, b=20.0):
    return DataEvent(EventKind.INSERT, "R", RTuple(rid, a, b))


class TestRingBasics:
    def test_roundtrip_and_fifo_order(self):
        with ShmRing.create(1 << 16) as ring:
            payloads = [bytes([i]) * (i + 1) for i in range(64)]
            for payload in payloads:
                ring.send(payload)
            assert [ring.recv(timeout=1.0) for _ in payloads] == payloads
            assert ring.occupancy() == 0

    def test_wraparound(self):
        # Capacity forces every frame to straddle the ring boundary sooner
        # or later; contents must survive the byte-wise wrap.
        with ShmRing.create(64) as ring:
            for i in range(200):
                payload = bytes([i % 256]) * 40
                ring.send(payload)
                assert ring.recv(timeout=1.0) == payload

    def test_oversize_frame_rejected(self):
        with ShmRing.create(128) as ring:
            with pytest.raises(TransportError, match="exceeds ring capacity"):
                ring.send(b"x" * 256)

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=256)
        try:
            with pytest.raises(TransportError, match="not a transport ring"):
                ShmRing.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_attach_rejects_layout_version_mismatch(self):
        ring = ShmRing.create(1 << 12)
        try:
            struct.pack_into("<I", ring._shm.buf, 4, 999)
            with pytest.raises(TransportError, match="layout version"):
                ShmRing.attach(ring.name)
        finally:
            ring.close()
            ring.unlink()


class TestRingBackpressure:
    def test_full_ring_send_times_out_instead_of_dropping(self):
        with ShmRing.create(64) as ring:
            ring.send(b"a" * 40)
            start = time.monotonic()
            with pytest.raises(RingTimeoutError):
                ring.send(b"b" * 40, timeout=0.05)
            assert time.monotonic() - start >= 0.05
            # The resident frame was not evicted or corrupted.
            assert ring.recv(timeout=1.0) == b"a" * 40

    def test_blocked_send_completes_once_consumer_drains(self):
        ring = ShmRing.create(64)
        received = []

        def drain_later():
            time.sleep(0.05)
            received.append(ring.recv(timeout=2.0))
            received.append(ring.recv(timeout=2.0))

        try:
            ring.send(b"a" * 40)
            consumer = threading.Thread(target=drain_later)
            consumer.start()
            # Blocks until drain_later frees space, then must succeed.
            ring.send(b"b" * 40, timeout=5.0)
            consumer.join()
            assert received == [b"a" * 40, b"b" * 40]
        finally:
            ring.close()
            ring.unlink()


class TestRingValidation:
    def test_forged_zero_header_never_validates(self):
        # The transient-zero-page hazard: tail says a frame exists but its
        # header reads as zeros.  With a plain CRC32 an all-zero header is
        # a valid empty frame (crc32(b"") == 0); the length-seeded CRC must
        # instead reject it until the grace window expires.
        ring = ShmRing.create(1 << 12)
        try:
            _U64.pack_into(ring._shm.buf, _OFF_TAIL, _FRAME.size)
            start = time.monotonic()
            with pytest.raises(FrameCorruptionError):
                ring.recv(timeout=1.0)
            # It retried through the grace window rather than trusting the
            # first bad read.
            assert time.monotonic() - start >= 0.04
        finally:
            ring.close()
            ring.unlink()

    def test_transient_corruption_heals_within_grace(self):
        # A frame whose bytes "appear" shortly after tail was published
        # (the observed zero-page healing pattern) must be delivered, not
        # declared corrupt.
        ring = ShmRing.create(1 << 12)
        payload = b"late frame"

        def heal():
            time.sleep(0.01)
            from repro.runtime.transport.shm import _frame_crc

            header = _FRAME.pack(len(payload), _frame_crc(payload))
            ring._shm.buf[_DATA : _DATA + len(header)] = header
            ring._shm.buf[
                _DATA + len(header) : _DATA + len(header) + len(payload)
            ] = payload

        try:
            _U64.pack_into(ring._shm.buf, _OFF_TAIL, _FRAME.size + len(payload))
            healer = threading.Thread(target=heal)
            healer.start()
            assert ring.crc_retries == 0
            assert ring.recv(timeout=1.0) == payload
            healer.join()
            # The re-reads that bridged the gap are counted, not silent.
            assert ring.crc_retries >= 1
        finally:
            ring.close()
            ring.unlink()


class TestRingLifecycle:
    def test_close_and_unlink_are_idempotent(self):
        ring = ShmRing.create(1 << 12)
        ring.close()
        ring.close()
        ring.unlink()
        ring.unlink()

    def test_operations_on_closed_ring_raise(self):
        ring = ShmRing.create(1 << 12)
        name = ring.name
        ring.close()
        with pytest.raises(TransportError, match="closed ring"):
            ring.send(b"x")
        with pytest.raises(TransportError, match="closed ring"):
            ring.recv(timeout=0.01)
        ring.unlink()
        with pytest.raises(FileNotFoundError):
            ShmRing.attach(name)


def _segment_names(pipe):
    workers = pipe._workers
    return [
        ring.name for ring in (*workers._requests.values(), *workers._responses.values())
    ]


def _workers(pipe):
    """The worker processes, shard 1's first (shard 0 runs in the parent)."""
    return list(pipe._workers._processes.values())


def _by_qid(deltas):
    return {query.qid: rows for query, rows in deltas.items()}


def _answer(workers):
    """Shard 1's response to the one request in flight: a BATCH's RESULT."""
    return workers._decode(1, workers._await_raw(1), frames.FRAME_RESULT)


def _query_batch(placement, record):
    """A BATCH frame of one query entry: its zero column slots, then a
    query section of ``placement`` (lo, hi) and ``record`` as it stands."""
    return (
        frames._HDR.pack(frames.FRAME_BATCH, frames.FRAME_VERSION)
        + struct.pack("<BQQI", 0, 0, 0, 1)
        + struct.pack("<Bqqddqh", 5, 0, 0, 0.0, 0.0, 0, 0)
        + struct.pack("<hh", *placement)
        + record
    )


class TestPipelineLifecycle:
    def test_close_idempotent_no_leaked_workers_or_segments(self):
        pipe = EventPipeline(num_shards=2, batch_size=8, mode="process-shm")
        pipe.subscribe(BandJoinQuery(Interval(0.0, 100.0), qid=1))
        pipe.run([_r_insert(i, float(i), float(i) + 5.0) for i in range(32)])
        names = _segment_names(pipe)
        workers = _workers(pipe)
        pipe.close()
        pipe.close()  # idempotent
        for worker in workers:
            assert not worker.is_alive()
        for name in names:
            with pytest.raises(FileNotFoundError):
                ShmRing.attach(name)

    @pytest.mark.parametrize("pending", [0, 3])
    def test_worker_killed_mid_run_fails_fast_and_closes_clean(self, pending):
        # With events still pending, close() has a drain to fail: it must
        # re-raise and still release every worker and segment.
        pipe = EventPipeline(num_shards=2, batch_size=8, mode="process-shm")
        names = _segment_names(pipe)
        close_outcome = (
            pytest.raises(TransportError, match="worker exited")
            if pending
            else contextlib.nullcontext()
        )
        try:
            pipe.subscribe(BandJoinQuery(Interval(0.0, 100.0), qid=1))
            pipe.run([_r_insert(i, float(i), float(i) + 5.0) for i in range(16)])
            victim = _workers(pipe)[0]
            victim.kill()
            victim.join(timeout=5.0)
            with pytest.raises(TransportError, match="worker exited"):
                pipe.run([_r_insert(100 + i, 1.0, 2.0) for i in range(16)])
            for i in range(pending):
                pipe.submit(_r_insert(200 + i, 1.0, 2.0))
            assert pipe.pending == pending
        finally:
            with close_outcome:
                pipe.close()
        for worker in _workers(pipe):
            assert not worker.is_alive()
        for name in names:
            with pytest.raises(FileNotFoundError):
                ShmRing.attach(name)

    @pytest.mark.parametrize(
        "bad_request",
        [
            frames._HDR.pack(frames.FRAME_BATCH, frames.FRAME_VERSION)
            + b"\xff\xff\xff\xff",
            frames.encode_batch_frame([
                (-1, QueryEvent(EventKind.INSERT, BandJoinQuery(Interval(0.0, 1.0), qid=3)), [0])
            ])[:-1],
            _query_batch((0, 0), struct.pack("<Bqdd", 5, 3, 2.0, 1.0)),
        ],
        ids=["garbage-batch", "control-cut-short", "control-lo-above-hi"],
    )
    def test_worker_survives_bad_request_frame(self, bad_request):
        # A decode error inside the worker must come back as an ERROR
        # frame — the worker stays alive and the next request still works —
        # and both sides count it.  The two ``control-`` cases are query
        # entries whose subscription record is cut short or refused.
        pipe = EventPipeline(num_shards=2, batch_size=4, mode="process-shm")
        try:
            workers = pipe._workers
            workers._send(1, bad_request)
            with pytest.raises(TransportError, match="bad request frame"):
                _answer(workers)
            assert _workers(pipe)[0].is_alive()
            pipe.subscribe(BandJoinQuery(Interval(0.0, 100.0), qid=7))
            out = pipe.run([_r_insert(0, 10.0, 12.0)])
            assert len(out) == 1
            workers.drain_telemetry()
            counters = pipe.metrics.snapshot()["counters"]
            assert counters["transport/frame_errors"] == 1
            assert counters["shard/1/transport/frame_errors"] == 1
        finally:
            pipe.close()

    def test_response_deadline_raises_and_counts(self, monkeypatch):
        # Nothing was sent, so no response is coming: the pipeline's own
        # deadline (not the ring's) must end the wait, visibly.
        from repro.runtime import pipeline as pipeline_mod

        pipe = EventPipeline(num_shards=2, batch_size=4, mode="process-shm")
        try:
            monkeypatch.setattr(pipeline_mod, "RESPONSE_TIMEOUT", 0.1)
            with pytest.raises(RingTimeoutError, match="no response from shard 1"):
                pipe._workers._await_raw(1)
            assert pipe.metrics.counter("transport/ring_timeouts").value == 1
            assert _workers(pipe)[0].is_alive()
        finally:
            pipe.close()

    def test_unscoped_worker_metric_is_a_counted_frame_error(self):
        # The parent folds a worker's metric names unchanged, so one outside
        # the sender's shard/<N>/ scope is refused at decode, and counted.
        pipe = EventPipeline(num_shards=2, mode="process-shm")
        try:
            raw = frames.encode_telemetry_frame(frames.TelemetryPayload(
                pid=1, shard=1, counters={"runtime/hotspot_promotions": 1}
            ))
            with pytest.raises(frames.FrameError, match="shard/1/ scope"):
                pipe._workers._decode(1, raw, frames.FRAME_TELEMETRY)
            assert pipe.metrics.counter("transport/frame_errors").value == 1
        finally:
            pipe.close()

    def test_transient_response_corruption_counts_crc_retries(self):
        # A response whose bytes validate only on a re-read is delivered,
        # and the re-reads surface as ``transport/crc_retries``.
        pipe = EventPipeline(num_shards=2, batch_size=4, mode="process-shm")
        try:
            workers = pipe._workers
            ring = workers._responses[1]
            workers._send(1, frames.encode_batch_frame([]))
            deadline = time.monotonic() + 10.0
            while not ring.occupancy():  # the RESULT is in the ring, unread
                assert time.monotonic() < deadline
                time.sleep(0.001)
            at = _DATA + ring._next_head % ring._capacity + _FRAME.size
            good = ring._shm.buf[at]
            ring._shm.buf[at] = good ^ 0xFF

            def heal():
                time.sleep(0.01)
                ring._shm.buf[at] = good

            healer = threading.Thread(target=heal)
            healer.start()
            _answer(workers)
            healer.join(timeout=5.0)
            assert not healer.is_alive()
            assert ring.crc_retries >= 1
            assert pipe.metrics.counter("transport/crc_retries").value == ring.crc_retries
        finally:
            pipe.close()

    @pytest.mark.parametrize("telemetry_every", [1, 16])
    def test_failed_batch_leaves_the_rings_aligned(self, telemetry_every, monkeypatch):
        # A DELETE of a row never inserted fails on every shard — shard 0
        # in the parent, after the sends, and both workers.  Every worker's
        # ERROR (and its telemetry follow-up) must be read before the
        # failure is raised, or the next batches read stale frames.
        from repro.runtime import pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod, "TELEMETRY_EVERY", telemetry_every)

        def feed(mode):
            with EventPipeline(num_shards=3, alpha=None, batch_size=1, mode=mode) as pipe:
                pipe.subscribe(BandJoinQuery(Interval(-5.0, 5.0), qid=1))
                pipe.submit(DataEvent(EventKind.INSERT, "S", STuple(0, 20.0, 50.0)))
                # Shard 0's KeyError, or a worker's report of one.
                with pytest.raises((KeyError, TransportError), match="99"):
                    pipe.submit(DataEvent(EventKind.DELETE, "R", RTuple(99, 1.0, 20.0)))
                later = pipe.run([_r_insert(rid, 1.0, 20.0) for rid in range(3)])
            return [(seq, _by_qid(deltas)) for seq, __, deltas in later]

        inline = feed("inline")
        assert [deltas for __, deltas in inline] == [{1: [STuple(0, 20.0, 50.0)]}] * 3
        assert feed("process-shm") == inline

    def test_one_shard_starts_no_process_and_matches_inline(self, monkeypatch):
        # K = 1 is shard 0 in the parent alone: no frame, no ring, no worker.
        from repro.runtime import pipeline as pipeline_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a one-shard pipeline used the transport")

        monkeypatch.setattr(frames, "encode_batch_frame", refuse)
        monkeypatch.setattr(pipeline_mod.ShmRing, "create", refuse)
        stream = generate_mixed_stream(
            StreamProfile(
                n_events=600,
                n_initial_queries=30,
                query_event_fraction=0.03,
                delete_fraction=0.25,
                churn=0.0,
                seed=9,
            )
        )
        children = set(multiprocessing.active_children())
        with EventPipeline(num_shards=1, batch_size=16, mode="process-shm") as pipe:
            got = pipe.run(stream)
            assert pipe._workers is None
            assert set(multiprocessing.active_children()) == children
        with EventPipeline(num_shards=1, batch_size=16, mode="inline") as pipe:
            want = pipe.run(stream)
        assert any(deltas for __, __, deltas in want)
        assert [(seq, _by_qid(d)) for seq, __, d in got] == [
            (seq, _by_qid(d)) for seq, __, d in want
        ]


def test_runtime_imports_without_durability():
    """Dependency direction ``durability → runtime → wire``: importing the
    runtime must not load any durability module."""
    check = (
        "import repro.runtime, sys; "
        "assert not [m for m in sys.modules if m.startswith('repro.durability')]"
    )
    subprocess.run([sys.executable, "-c", check], check=True, cwd=SRC, timeout=60)


class TestCrossProcessTelemetry:
    def test_merged_trace_and_metrics_span_processes(self):
        import os

        from repro.obs.tracing import RingTracer
        from repro.runtime.metrics import MetricsRegistry

        registry = MetricsRegistry()
        tracer = RingTracer()
        pipe = EventPipeline(
            num_shards=3,
            batch_size=8,
            mode="process-shm",
            metrics=registry,
            tracer=tracer,
        )
        try:
            pipe.subscribe(BandJoinQuery(Interval(0.0, 100.0), qid=1))
            # Shard 0 records no span for a batch in which it holds no
            # query: this band's midpoint places it there.
            pipe.subscribe(BandJoinQuery(Interval(-8_000.0, -7_000.0), qid=2))
            # And this one on shard 2: a worker whose shard holds no query
            # times no entry.
            pipe.subscribe(BandJoinQuery(Interval(7_000.0, 8_000.0), qid=3))
            for i in range(200):
                pipe.submit(_r_insert(i, float(i % 50), 1.0))
            pipe.drain()
            pipe.sample_hotspots()  # drains pending worker telemetry
        finally:
            pipe.close()

        # One trace across processes: the parent (which applies shard 0)
        # and both workers share the parent's trace id.
        spans = tracer.snapshot()
        pids = {s.pid for s in spans}
        assert os.getpid() in pids
        assert len(pids) >= 3, f"expected parent + 2 worker pids, saw {pids}"
        assert any(
            s.name == "shard.apply" and (s.args or {}).get("shard") == 0
            for s in spans if s.pid == os.getpid()
        ), "shard 0's spans belong in the parent's lane"
        worker_spans = [s for s in spans if s.pid != os.getpid()]
        batch_spans = [s for s in worker_spans if s.name == "worker.batch"]
        assert batch_spans, "no worker.batch spans merged"
        # Spans recorded after the first BATCH share the parent's trace id
        # (pre-adoption spans, e.g. from subscribe, keep the worker's own).
        assert all(s.trace_id == tracer.trace_id for s in batch_spans)
        # Non-empty batches parent to the pipeline's roundtrip span (the
        # empty telemetry-drain batches legitimately have no open parent).
        real_batches = [s for s in batch_spans if (s.args or {}).get("events")]
        assert real_batches
        assert all(s.parent_id != 0 for s in real_batches)

        # The Chrome export names a lane per process.
        trace = tracer.to_chrome_trace()
        meta = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert meta.get(os.getpid()) == "pipeline (parent)"
        assert sum("worker" in name for name in meta.values()) >= 2

        # Worker metrics merged under shard prefixes; e2e histograms filled
        # on both sides of the boundary, by the workers only.
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["pipeline/e2e_us"]["count"] == 200
        for shard in (1, 2):
            merged = snapshot["histograms"].get(
                f"shard/{shard}/worker/e2e/ingest_to_apply_us"
            )
            assert merged is not None and merged["count"] > 0
        assert "shard/0/worker/e2e/ingest_to_apply_us" not in snapshot["histograms"]
        # One shard namespace: nothing merges under the prefix-less form.
        assert not any(
            re.match(r"shard\d+/", name)
            for section in snapshot.values()
            for name in section
        )

    def test_untraced_parent_gets_metrics_but_no_spans(self, monkeypatch):
        """A worker records spans only for a BATCH that carries a trace
        id; its metric deltas ship on every telemetry round regardless."""
        from repro.runtime import pipeline as pipeline_mod
        from repro.runtime.metrics import MetricsRegistry

        payloads = []

        def recording_merge(registry, tracer, payload):
            payloads.append(payload)
            merge_telemetry(registry, tracer, payload)

        merge_telemetry = pipeline_mod.merge_telemetry
        monkeypatch.setattr(pipeline_mod, "merge_telemetry", recording_merge)
        registry = MetricsRegistry()
        pipe = EventPipeline(
            num_shards=2, alpha=0.2, batch_size=8, mode="process-shm", metrics=registry
        )
        try:
            # Near-identical bands: one dominant stabbing group, promoted
            # by the tracker of the shard that owns midpoint ~0.
            for i in range(30):
                pipe.subscribe(BandJoinQuery(Interval(-1.0 - 0.01 * i, 1.0)))
            for i in range(200):
                pipe.submit(_r_insert(i, float(i % 50), 1.0))
            pipe.drain()
            pipe.sample_hotspots()  # drains pending worker telemetry
        finally:
            pipe.close()
        # Shard 0 writes straight into the parent registry: no payload.
        assert {payload.shard for payload in payloads} == {1}
        assert all(payload.spans == [] for payload in payloads)
        assert all(payload.spans_dropped == 0 for payload in payloads)
        snapshot = registry.snapshot()
        # Most bands sit on shard 0, one on shard 1: both trackers promote,
        # and each count carries its shard's name.
        counters = snapshot["counters"]
        assert counters["shard/0/runtime/hotspot_promotions"] >= 1
        assert counters["shard/1/runtime/hotspot_promotions"] >= 1
        assert "runtime/hotspot_promotions" not in counters
        merged = snapshot["histograms"]["shard/1/worker/e2e/ingest_to_apply_us"]
        assert merged["count"] == 200

    def test_inline_mode_unchanged_by_telemetry_wiring(self):
        from repro.runtime.metrics import MetricsRegistry

        registry = MetricsRegistry()
        pipe = EventPipeline(num_shards=2, batch_size=8, metrics=registry)
        try:
            pipe.subscribe(BandJoinQuery(Interval(0.0, 100.0), qid=1))
            for i in range(50):
                pipe.submit(_r_insert(i, float(i % 10), 1.0))
            pipe.drain()
        finally:
            pipe.close()
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["pipeline/e2e_us"]["count"] == 50
        # No worker registries inline — nothing merged under shard/<N>/worker/.
        assert not any(
            name.startswith("shard/0/worker/") for name in snapshot["histograms"]
        )


class TestReplayEquivalence:
    def test_process_shm_matches_reference_on_mixed_stream(self):
        stream = generate_mixed_stream(
            StreamProfile(
                n_events=1_500,
                n_initial_queries=40,
                query_event_fraction=0.03,
                delete_fraction=0.25,
                churn=0.0,
                seed=11,
            )
        )
        report = run_replay(stream, num_shards=2, batch_size=32, mode="process-shm")
        assert report.equivalent, report.summary()

    def test_every_worker_reads_the_one_frame_of_a_batch(self, monkeypatch):
        """One ``encode_batch_frame`` call per roundtrip, the same bytes on
        the request rings of shards 1…K−1 (shard 0 runs in the parent) —
        and the deltas still equal the unsharded
        ``ContinuousQuerySystem``'s."""
        from repro.runtime import pipeline as pipeline_mod

        encoded, sent = [], []
        encode = frames.encode_batch_frame
        send = pipeline_mod._ShmWorkers._send

        def recording_encode(*args, **kwargs):
            encoded.append(encode(*args, **kwargs))
            return encoded[-1]

        def recording_send(workers, index, payload):
            if payload[0] == frames.FRAME_BATCH:
                sent.append((index, payload))
            send(workers, index, payload)

        monkeypatch.setattr(frames, "encode_batch_frame", recording_encode)
        monkeypatch.setattr(pipeline_mod._ShmWorkers, "_send", recording_send)
        stream = generate_mixed_stream(
            StreamProfile(
                n_events=600,
                n_initial_queries=30,
                query_event_fraction=0.03,
                delete_fraction=0.25,
                churn=0.0,
                seed=5,
            )
        )
        report = run_replay(stream, num_shards=3, batch_size=16, mode="process-shm")
        assert report.equivalent, report.summary()
        assert len(encoded) > 600 // 16
        assert sent == [
            (index, payload) for payload in encoded for index in (1, 2)
        ]
