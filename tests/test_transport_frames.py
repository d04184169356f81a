"""Property tests for the columnar frame codec (hypothesis-driven).

The wire contract under test:

* BATCH frames round-trip arbitrary insert/delete interleavings over both
  relations exactly — sequence numbers, row payloads (including NaN and
  ±inf coordinates), and the per-entry select-plane owner;
* RESULT frames round-trip ``(seq, {qid: rows})`` deltas against the
  frame's own deduplicated row table, with the documented normalization
  that *empty* deltas are elided on encode;
* ``encode → decode → encode`` is a fixed point, which is how NaN-bearing
  payloads are compared (bytes are exact where ``==`` on floats is not);
* every lifecycle frame survives ``decode_frame`` dispatch, and corrupted
  headers, truncated frames and inconsistent BATCH segments fail as
  :class:`FrameError`, never as another exception or a silent misdecode.
"""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.core.intervals import Interval
from repro.engine.queries import BandJoinQuery
from repro.engine.table import RTuple, STuple
from repro.runtime.transport import frames

# Any IEEE double the tables can hold, NaN and infinities included.
coords = st.floats(allow_nan=True, allow_infinity=True, width=64)
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def shard_entries(draw, min_size=0, max_size=40):
    """Arbitrary interleavings of R/S inserts and deletes; an S row names
    its select-plane owner, an R row has none (-1)."""
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        relation = draw(st.sampled_from(["R", "S"]))
        kind = draw(st.sampled_from([EventKind.INSERT, EventKind.DELETE]))
        x, y = draw(coords), draw(coords)
        row_id = draw(i64)
        row = RTuple(row_id, x, y) if relation == "R" else STuple(row_id, x, y)
        owner = -1 if relation == "R" else draw(st.integers(0, 2**15 - 1))
        out.append((draw(i64), DataEvent(kind, relation, row), owner))
    return out


rows = st.one_of(
    st.builds(RTuple, i64, coords, coords),
    st.builds(STuple, i64, coords, coords),
)


@st.composite
def seq_results(draw):
    """``(seq, {qid: rows})`` lists with strictly increasing seqs (the
    worker emits them in batch order) and possibly-empty delta lists."""
    seqs = sorted(draw(st.sets(i64, max_size=8)))
    out = []
    for seq in seqs:
        qids = draw(st.sets(i64, max_size=4))
        out.append(
            (seq, {qid: draw(st.lists(rows, max_size=5)) for qid in qids})
        )
    return out


def _entries_equal(got, want):
    """Structural equality that treats NaN as equal to itself."""
    if len(got) != len(want):
        return False
    for (g_seq, g_ev, g_owner), (w_seq, w_ev, w_owner) in zip(got, want):
        if (g_seq, g_owner) != (w_seq, w_owner):
            return False
        if g_ev.kind is not w_ev.kind or g_ev.relation != w_ev.relation:
            return False
        g_vals = (
            (g_ev.row.rid, g_ev.row.a, g_ev.row.b)
            if g_ev.relation == "R"
            else (g_ev.row.sid, g_ev.row.b, g_ev.row.c)
        )
        w_vals = (
            (w_ev.row.rid, w_ev.row.a, w_ev.row.b)
            if w_ev.relation == "R"
            else (w_ev.row.sid, w_ev.row.b, w_ev.row.c)
        )
        for g, w in zip(g_vals, w_vals):
            if g != w and not (
                isinstance(g, float) and math.isnan(g) and math.isnan(w)
            ):
                return False
    return True


class TestBatchFrameRoundTrip:
    @settings(max_examples=200)
    @given(shard_entries())
    def test_roundtrip(self, entries):
        payload = frames.encode_batch_frame(entries)
        frame_type, decoded = frames.decode_frame(payload)
        assert frame_type == frames.FRAME_BATCH
        assert _entries_equal(decoded.entries, entries)
        # No context supplied: the trace fields decode as "absent".
        assert decoded.trace_id == 0
        assert decoded.parent_span_id == 0
        assert decoded.want_telemetry is False
        # Unstamped batches carry a zero ingest column (0 = "not stamped").
        assert decoded.ingest_ns == (0,) * len(entries)

    @settings(max_examples=100)
    @given(shard_entries())
    def test_encode_decode_encode_fixed_point(self, entries):
        payload = frames.encode_batch_frame(entries)
        _, decoded = frames.decode_frame(payload)
        assert frames.encode_batch_frame(decoded.entries) == payload

    def test_empty_batch(self):
        payload = frames.encode_batch_frame([])
        frame_type, decoded = frames.decode_frame(payload)
        assert frame_type == frames.FRAME_BATCH
        assert decoded.entries == []

    @settings(max_examples=100)
    @given(
        shard_entries(min_size=1),
        st.integers(min_value=1, max_value=2**63 - 1),
        st.integers(min_value=0, max_value=2**63 - 1),
        st.booleans(),
    )
    def test_trace_context_roundtrip(self, entries, trace_id, parent, want):
        ingest = list(range(1, len(entries) + 1))
        payload = frames.encode_batch_frame(
            entries,
            ingest_ns=ingest,
            trace_id=trace_id,
            parent_span_id=parent,
            want_telemetry=want,
        )
        _, decoded = frames.decode_frame(payload)
        assert decoded.trace_id == trace_id
        assert decoded.parent_span_id == parent
        assert decoded.want_telemetry is want
        assert list(decoded.ingest_ns) == ingest
        assert _entries_equal(decoded.entries, entries)

    def test_ingest_length_must_match_entries(self):
        entry = (0, DataEvent(EventKind.INSERT, "R", RTuple(1, 0.0, 0.0)), -1)
        with pytest.raises(frames.FrameError, match="parallel"):
            frames.encode_batch_frame([entry], ingest_ns=[1, 2])

    def test_segments_must_add_up_to_the_header_count(self):
        """The header's entry count is checked against the segments, not
        used as a stop condition: a segment may not overshoot it, and an
        empty segment is not a segment."""
        n_entries_at = 2 + struct.calcsize("<BQQ")
        segments_at = n_entries_at + 4
        five = [
            (seq, DataEvent(EventKind.INSERT, "R", RTuple(seq, 0.0, 0.0)), -1)
            for seq in range(5)
        ]
        payload = bytearray(frames.encode_batch_frame(five))
        struct.pack_into("<I", payload, n_entries_at, 1)
        with pytest.raises(frames.FrameError, match="segment of 5"):
            frames.decode_frame(bytes(payload))
        payload = frames.encode_batch_frame(five[:1])
        empty_segment = struct.pack("<BI", 1, 0)
        with pytest.raises(frames.FrameError, match="segment of 0"):
            frames.decode_frame(
                payload[:segments_at] + empty_segment + payload[segments_at:]
            )

    def test_owner_must_fit_the_relation(self):
        r_row = DataEvent(EventKind.INSERT, "R", RTuple(1, 0.0, 0.0))
        s_row = DataEvent(EventKind.INSERT, "S", STuple(1, 0.0, 0.0))
        for entry in [(0, r_row, 0), (0, s_row, -1)]:
            with pytest.raises(frames.FrameError, match="owner"):
                frames.decode_frame(frames.encode_batch_frame([entry]))


class TestResultFrameRoundTrip:
    @settings(max_examples=200)
    @given(seq_results(), st.floats(min_value=0.0, max_value=1e6))
    def test_roundtrip_modulo_empty_elision(self, results, elapsed):
        payload = frames.encode_result_frame(elapsed, results)
        frame_type, (got_elapsed, got) = frames.decode_frame(payload)
        assert frame_type == frames.FRAME_RESULT
        assert got_elapsed == elapsed
        # The documented normalization: empty per-qid deltas are elided,
        # and with them any seq left with no non-empty delta at all.
        want = [
            (seq, {qid: rows for qid, rows in deltas.items() if rows})
            for seq, deltas in results
        ]
        want = [(seq, deltas) for seq, deltas in want if deltas]
        assert frames.encode_result_frame(elapsed, got) == frames.encode_result_frame(
            elapsed, want
        )

    @settings(max_examples=100)
    @given(seq_results(), st.floats(min_value=0.0, max_value=1e6))
    def test_encode_decode_encode_fixed_point(self, results, elapsed):
        payload = frames.encode_result_frame(elapsed, results)
        _, (got_elapsed, got) = frames.decode_frame(payload)
        assert frames.encode_result_frame(got_elapsed, got) == payload

    def test_row_table_deduplicates_shared_rows(self):
        row = RTuple(1, 2.0, 3.0)
        results = [(0, {7: [row], 8: [row]})]
        payload = frames.encode_result_frame(0.0, results)
        _, (_, decoded) = frames.decode_frame(payload)
        assert decoded == [(0, {7: [row], 8: [row]})]


class TestLifecycleFrames:
    def test_ack_shutdown_error_roundtrip(self):
        assert frames.decode_frame(frames.encode_ack_frame()) == (
            frames.FRAME_ACK,
            None,
        )
        assert frames.decode_frame(frames.encode_shutdown_frame()) == (
            frames.FRAME_SHUTDOWN,
            None,
        )
        frame_type, message = frames.decode_frame(
            frames.encode_error_frame("shard 3 exploded: déjà vu")
        )
        assert frame_type == frames.FRAME_ERROR
        assert message == "shard 3 exploded: déjà vu"

    def test_control_frame_roundtrip(self):
        query = BandJoinQuery(Interval(5.0, 25.0), qid=42)
        payload = frames.encode_control_frame(QueryEvent(EventKind.INSERT, query))
        frame_type, record = frames.decode_frame(payload)
        assert frame_type == frames.FRAME_CONTROL
        assert record is not None

    def test_header_validation(self):
        with pytest.raises(frames.FrameError, match="no header"):
            frames.decode_frame(b"")
        with pytest.raises(frames.FrameError, match="version"):
            frames.decode_frame(bytes([frames.FRAME_ACK, 99]))
        with pytest.raises(frames.FrameError, match="unknown frame type"):
            frames.decode_frame(bytes([250, frames.FRAME_VERSION]))
        with pytest.raises(frames.FrameError, match="carries no body"):
            frames.decode_frame(frames.encode_ack_frame() + b"junk")


metric_names = st.text(min_size=1, max_size=40)

u63 = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def telemetry_payloads(draw):
    from repro.obs.tracing import SpanRecord

    # One frame = one worker: every span shares the payload's pid (the
    # wire format carries it once in the header, not per span).
    pid = draw(st.integers(min_value=1, max_value=2**22))
    spans = [
        SpanRecord(
            name=draw(metric_names),
            ts_ns=draw(i64),
            dur_ns=draw(st.integers(min_value=0, max_value=2**62)),
            tid=draw(u63),
            # Empty args normalize to None on the wire, so only generate
            # None or non-empty dicts.
            args=draw(
                st.one_of(
                    st.none(),
                    st.dictionaries(
                        st.text(min_size=1, max_size=8),
                        st.integers(min_value=-1000, max_value=1000),
                        min_size=1,
                        max_size=3,
                    ),
                )
            ),
            pid=pid,
            trace_id=draw(u63),
            span_id=draw(u63),
            parent_id=draw(u63),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    counters = draw(
        st.dictionaries(metric_names, st.integers(min_value=0, max_value=2**40), max_size=5)
    )
    gauges = draw(
        st.dictionaries(
            metric_names,
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            max_size=5,
        )
    )
    histograms = draw(
        st.dictionaries(
            metric_names,
            st.builds(
                frames.HistogramDelta,
                count=st.integers(min_value=1, max_value=2**40),
                total=st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_value=st.floats(allow_nan=False, allow_infinity=True, width=64),
                max_value=st.floats(allow_nan=False, allow_infinity=True, width=64),
                buckets=st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=63),
                        st.integers(min_value=1, max_value=2**40),
                    ),
                    max_size=6,
                    unique_by=lambda pair: pair[0],
                ),
            ),
            max_size=3,
        )
    )
    return frames.TelemetryPayload(
        pid=pid,
        shard=draw(st.integers(min_value=0, max_value=255)),
        trace_id=draw(u63),
        spans_dropped=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        spans=spans,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
    )


class TestTelemetryFrameRoundTrip:
    @settings(max_examples=150)
    @given(telemetry_payloads())
    def test_roundtrip(self, payload):
        encoded = frames.encode_telemetry_frame(payload)
        frame_type, decoded = frames.decode_frame(encoded)
        assert frame_type == frames.FRAME_TELEMETRY
        assert decoded.pid == payload.pid
        assert decoded.shard == payload.shard
        assert decoded.trace_id == payload.trace_id
        assert decoded.spans_dropped == payload.spans_dropped
        assert decoded.counters == payload.counters
        assert decoded.gauges == payload.gauges
        assert len(decoded.spans) == len(payload.spans)
        for got, want in zip(decoded.spans, payload.spans):
            assert got.name == want.name
            assert got.ts_ns == want.ts_ns
            assert got.dur_ns == want.dur_ns
            assert (got.pid, got.trace_id, got.span_id, got.parent_id) == (
                want.pid, want.trace_id, want.span_id, want.parent_id
            )
            assert got.args == want.args
        assert set(decoded.histograms) == set(payload.histograms)
        for name, want_hist in payload.histograms.items():
            got_hist = decoded.histograms[name]
            assert got_hist.count == want_hist.count
            assert got_hist.total == want_hist.total
            assert sorted(got_hist.buckets) == sorted(want_hist.buckets)

    @settings(max_examples=50)
    @given(telemetry_payloads())
    def test_encode_decode_encode_fixed_point(self, payload):
        encoded = frames.encode_telemetry_frame(payload)
        _, decoded = frames.decode_frame(encoded)
        assert frames.encode_telemetry_frame(decoded) == encoded

    def test_empty_payload(self):
        payload = frames.TelemetryPayload(pid=1, shard=0)
        _, decoded = frames.decode_frame(frames.encode_telemetry_frame(payload))
        assert decoded.spans == []
        assert decoded.counters == {}
        assert decoded.gauges == {}
        assert decoded.histograms == {}


_shared_row = RTuple(1, 2.0, 3.0)

encoded_frames = st.one_of(
    shard_entries(max_size=6).map(frames.encode_batch_frame),
    seq_results().map(lambda results: frames.encode_result_frame(0.5, results)),
    telemetry_payloads().map(frames.encode_telemetry_frame),
)


class TestTruncation:
    @settings(max_examples=60, deadline=None)
    @given(encoded_frames)
    @example(
        frames.encode_result_frame(
            0.5, [(0, {7: [_shared_row]}), (1, {8: [_shared_row, STuple(2, 0.0, 1.0)]})]
        )
    )
    def test_every_proper_prefix_raises_frame_error(self, payload):
        """A frame cut short anywhere is a ``FrameError`` — the one
        exception the transport's error handling catches — never a
        ``struct.error`` or a shorter valid frame."""
        frames.decode_frame(payload)
        for cut in range(len(payload)):
            with pytest.raises(frames.FrameError):
                frames.decode_frame(payload[:cut])
