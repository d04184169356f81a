"""Property tests for the columnar frame codec (hypothesis-driven).

The wire contract under test:

* BATCH frames round-trip arbitrary interleavings of inserts and deletes
  over both relations and of subscription changes (at any position among
  the data entries) exactly — sequence numbers, row payloads (including
  NaN and ±inf coordinates), the per-entry select-plane owner, and a
  query entry's record and placement — as one column set of
  ``HEADER + ROW_BYTES * n`` bytes plus the query section, however the
  entries interleave;
* RESULT frames round-trip ``(seq, {qid: rows})`` deltas against the
  frame's own deduplicated row table, with the documented normalization
  that *empty* deltas are elided on encode;
* ``encode → decode → encode`` is a fixed point, which is how NaN-bearing
  payloads are compared (bytes are exact where ``==`` on floats is not);
* every lifecycle frame survives ``decode_frame`` dispatch, and corrupted
  headers, truncated frames of every type (query sections included),
  unknown BATCH entry tags, query sections that do not match the tags,
  subscription records the engine's value types refuse, non-UTF-8 names
  and metric names outside the sending shard's ``shard/<N>/`` scope fail
  as :class:`FrameError`, never as another exception or a silent
  misdecode;
* the encoders' bytes are pinned against hex literals (``TestGoldenBytes``),
  so a refactor cannot move the format silently.
"""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.core.intervals import Interval
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.obs.tracing import SpanRecord
from repro.engine.table import RTuple, STuple
from repro.runtime.transport import frames
from repro.wire import Unsubscribe

# Any IEEE double the tables can hold, NaN and infinities included.
coords = st.floats(allow_nan=True, allow_infinity=True, width=64)
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

# A BATCH is the frame header, the trace context and entry count, then one
# column slot per entry: tag, seq, id, x, y, ingest, owner.
HEADER = 2 + struct.calcsize("<BQQI")
ROW_BYTES = struct.calcsize("<Bqqddqh")
assert (HEADER, ROW_BYTES) == (23, 43)


def one_query_batch(placement, record):
    """A BATCH of one query entry: its zero column slots, then a query
    section of ``placement`` (lo, hi) and ``record`` as it stands."""
    return b"".join([
        bytes([frames.FRAME_BATCH, frames.FRAME_VERSION]),
        struct.pack("<BQQI", 0, 0, 0, 1),
        struct.pack("<Bqqddqh", 5, 0, 0, 0.0, 0.0, 0, 0),
        struct.pack("<hh", *placement),
        record,
    ])


# Non-NaN, ordered endpoints: what a subscription can hold.
intervals = st.tuples(
    st.floats(allow_nan=False, width=64), st.floats(allow_nan=False, width=64)
).map(lambda pair: Interval(min(pair), max(pair)))

control_events = st.one_of(
    st.builds(
        QueryEvent,
        st.sampled_from([EventKind.INSERT, EventKind.DELETE]),
        st.builds(BandJoinQuery, intervals, qid=i64),
    ),
    st.builds(
        QueryEvent,
        st.just(EventKind.INSERT),
        st.builds(SelectJoinQuery, intervals, intervals, qid=i64),
    ),
)

placements = st.tuples(st.integers(0, 2**15 - 1), st.integers(0, 64)).map(
    lambda pair: range(pair[0], min(2**15, pair[0] + pair[1] + 1))
)


@st.composite
def shard_entries(draw, min_size=0, max_size=40, queries=True):
    """Arbitrary interleavings of R/S inserts and deletes and (unless
    ``queries`` is off) subscription changes; an S row names its
    select-plane owner, an R row has none (-1), a query entry has seq -1
    and a placement."""
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        if queries and draw(st.integers(0, 4)) == 0:
            out.append((-1, draw(control_events), draw(placements)))
            continue
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


def _query_equal(got, want):
    """A decoded query entry against the one encoded: an UNSUB decodes to
    its qid alone, a SUB to a fresh query of the same qid and ranges."""
    (g_seq, g_ev, g_placement), (w_seq, w_ev, w_placement) = got, want
    if (g_seq, list(g_placement)) != (w_seq, list(w_placement)):
        return False
    if g_ev.kind is not w_ev.kind or g_ev.query.qid != w_ev.query.qid:
        return False
    if w_ev.kind is EventKind.DELETE:
        return isinstance(g_ev.query, Unsubscribe)
    ranges = ("band",) if isinstance(w_ev.query, BandJoinQuery) else ("range_a", "range_c")
    return type(g_ev.query) is type(w_ev.query) and all(
        getattr(g_ev.query, name) == getattr(w_ev.query, name) for name in ranges
    )


def _entries_equal(got, want):
    """Structural equality that treats NaN as equal to itself."""
    if len(got) != len(want):
        return False
    for g_entry, w_entry in zip(got, want):
        if isinstance(w_entry[1], QueryEvent):
            if not _query_equal(g_entry, w_entry):
                return False
            continue
        (g_seq, g_ev, g_owner), (w_seq, w_ev, w_owner) = g_entry, w_entry
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


_sub = QueryEvent(EventKind.INSERT, BandJoinQuery(Interval(0.0, 1.0), qid=3))
_unsub = QueryEvent(EventKind.DELETE, BandJoinQuery(Interval(0.0, 1.0), qid=3))
# Query entries first, between two data entries and last.
_queries_anywhere = [
    (-1, _sub, range(0, 2)),
    (4, DataEvent(EventKind.DELETE, "S", STuple(1, 0.5, 2.0)), 1),
    (-1, _sub, range(1, 2)),
    (5, DataEvent(EventKind.INSERT, "R", RTuple(2, 0.0, 3.0)), -1),
    (-1, _unsub, range(0, 1)),
]


class TestBatchFrameRoundTrip:
    @settings(max_examples=200)
    @given(shard_entries())
    @example(_queries_anywhere)
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
    @example(_queries_anywhere)
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
        # A query entry's stamp does not cross: it answers nothing.
        assert list(decoded.ingest_ns) == [
            0 if isinstance(entry[1], QueryEvent) else stamp
            for entry, stamp in zip(entries, ingest)
        ]
        assert _entries_equal(decoded.entries, entries)

    def test_ingest_length_must_match_entries(self):
        entry = (0, DataEvent(EventKind.INSERT, "R", RTuple(1, 0.0, 0.0)), -1)
        with pytest.raises(frames.FrameError, match="parallel"):
            frames.encode_batch_frame([entry], ingest_ns=[1, 2])

    def test_a_batch_is_one_column_set_however_its_entries_interleave(self):
        """A kind or relation change every entry costs no byte: 64 entries
        cycling INSERT R / DELETE S / INSERT S / DELETE R are the header
        and 64 column slots, nothing else."""
        cycle = [(EventKind.INSERT, "R"), (EventKind.DELETE, "S"),
                 (EventKind.INSERT, "S"), (EventKind.DELETE, "R")]
        entries = []
        for seq in range(64):
            kind, relation = cycle[seq % 4]
            row = (RTuple if relation == "R" else STuple)(seq, 1.0, 2.0)
            entries.append((seq, DataEvent(kind, relation, row), -1 if relation == "R" else 0))
        payload = frames.encode_batch_frame(entries, ingest_ns=range(64))
        assert len(payload) == HEADER + ROW_BYTES * 64
        assert payload[HEADER : HEADER + 64] == bytes([1, 4, 2, 3] * 16)
        assert frames.decode_frame(payload)[1].entries == entries

    @pytest.mark.parametrize(
        "case", ["unknown-tag", "query-section-short", "query-section-extra", "version-4"]
    )
    def test_malformed_batch_raises_frame_error(self, case):
        """Tags the decoder does not know, tag-5 entries the query section
        does not hold, a query section no tag asks for, and a version-4
        BATCH are all refused as ``FrameError``."""
        three = [
            (seq, DataEvent(EventKind.INSERT, "R", RTuple(seq, 0.0, 0.0)), -1)
            for seq in range(3)
        ]
        payload = bytearray(frames.encode_batch_frame(three))
        if case == "unknown-tag":
            payload[HEADER + 1], match = 6, "unknown batch entry tag 6"
        elif case == "query-section-short":
            payload[HEADER + 1], match = 5, "truncated query section"
        elif case == "query-section-extra":
            section = frames.encode_batch_frame([(-1, _sub, [0])])[HEADER + ROW_BYTES :]
            payload += section
            match = f"{len(section)} trailing byte"
        else:
            payload[1], match = 4, "frame version 4 unsupported"
        with pytest.raises(frames.FrameError, match=match):
            frames.decode_frame(bytes(payload))

    def test_query_placement_must_be_a_shard_range(self):
        payload = frames.encode_batch_frame([(-1, _sub, [2])])
        at = HEADER + ROW_BYTES
        for lo, hi in [(3, 2), (-1, 0)]:
            bad = payload[:at] + struct.pack("<hh", lo, hi) + payload[at + 4 :]
            with pytest.raises(frames.FrameError, match="placement"):
                frames.decode_frame(bad)

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
    def test_shutdown_error_roundtrip(self):
        assert frames.decode_frame(frames.encode_shutdown_frame()) == (
            frames.FRAME_SHUTDOWN,
            None,
        )
        frame_type, message = frames.decode_frame(
            frames.encode_error_frame("shard 3 exploded: déjà vu")
        )
        assert frame_type == frames.FRAME_ERROR
        assert message == "shard 3 exploded: déjà vu"

    def test_query_segment_roundtrip(self):
        """A subscription change is a BATCH entry: its record and placement
        cross, its seq and ingest stamp do not (-1 and 0 on arrival)."""
        query = BandJoinQuery(Interval(5.0, 25.0), qid=42)
        entries = [
            (-1, QueryEvent(EventKind.INSERT, query), [1]),
            (7, DataEvent(EventKind.INSERT, "R", RTuple(1, 0.0, 0.0)), -1),
            (-1, QueryEvent(EventKind.DELETE, query), [1]),
        ]
        payload = frames.encode_batch_frame(entries, ingest_ns=[5, 6, 7])
        frame_type, decoded = frames.decode_frame(payload)
        assert frame_type == frames.FRAME_BATCH
        assert _entries_equal(decoded.entries, entries)
        assert decoded.ingest_ns == (0, 6, 0)
        assert decoded.entries[2][1].query == Unsubscribe(42)

    def test_header_validation(self):
        with pytest.raises(frames.FrameError, match="no header"):
            frames.decode_frame(b"")
        with pytest.raises(frames.FrameError, match="version"):
            frames.decode_frame(bytes([frames.FRAME_SHUTDOWN, 99]))
        # 3 and 4 (CONTROL and ACK until version 3) are retired.
        for retired in (3, 4, 250):
            with pytest.raises(frames.FrameError, match="unknown frame type"):
                frames.decode_frame(bytes([retired, frames.FRAME_VERSION]))
        with pytest.raises(frames.FrameError, match="carries no body"):
            frames.decode_frame(frames.encode_shutdown_frame() + b"junk")


metric_names = st.text(min_size=1, max_size=40)

u63 = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def histogram_deltas(draw):
    # What a worker ships: in-range bucket indices whose deltas sum to the
    # count (the decoder refuses anything else).
    buckets = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=1, max_value=2**40),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda pair: pair[0],
        )
    )
    return frames.HistogramDelta(
        count=sum(added for _, added in buckets),
        total=draw(st.floats(allow_nan=False, allow_infinity=False, width=64)),
        min_value=draw(st.floats(allow_nan=False, allow_infinity=True, width=64)),
        max_value=draw(st.floats(allow_nan=False, allow_infinity=True, width=64)),
        buckets=buckets,
    )


@st.composite
def telemetry_payloads(draw):
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
    shard = draw(st.integers(min_value=0, max_value=255))
    # Every metric name carries the sending shard's scope.
    scoped_names = metric_names.map(lambda name: f"shard/{shard}/{name}")
    counters = draw(
        st.dictionaries(scoped_names, st.integers(min_value=0, max_value=2**40), max_size=5)
    )
    gauges = draw(
        st.dictionaries(
            scoped_names,
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            max_size=5,
        )
    )
    histograms = draw(st.dictionaries(scoped_names, histogram_deltas(), max_size=3))
    return frames.TelemetryPayload(
        pid=pid,
        shard=shard,
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
    st.tuples(control_events, placements).map(
        lambda pair: frames.encode_batch_frame([(-1, *pair)])
    ),
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

    @pytest.mark.parametrize(
        "record",
        [
            struct.pack("<Bqdd", 5, 1, 2.0, 1.0),  # SUB band, lo > hi
            struct.pack("<Bqdd", 5, 1, float("nan"), 1.0),
            struct.pack("<Bqdddd", 6, 1, 0.0, 1.0, 9.0, 3.0),  # SUB select
            struct.pack("<Bqdddd", 6, 1, 0.0, float("nan"), 3.0, 9.0),
            struct.pack("<Bq", 7, 1) + b"\x00",  # UNSUB + a trailing byte
            bytes([9]) + b"\x00" * 8,  # no such record tag
            struct.pack("<Bqdd", 1, 1, 2.0, 1.0),  # a data record (INSERT R)
        ],
        ids=[
            "band-inverted",
            "band-nan",
            "select-inverted",
            "select-nan",
            "unsub-trailing-byte",
            "unknown-tag",
            "data-record",
        ],
    )
    def test_malformed_control_record_raises_frame_error(self, record):
        """The worker catches ``FrameError`` only: a query section's
        subscription record that the record table or the engine's value
        types refuse must not surface as ``CodecError`` or ``ValueError``."""
        with pytest.raises(frames.FrameError):
            frames.decode_frame(one_query_batch((0, 0), record))

    @pytest.mark.parametrize(
        "buckets, match",
        [
            ([(1, 2), (70, 3)], "bucket index out of range"),
            ([(1, 2), (3, 2)], "do not sum to its count"),
        ],
        ids=["bucket-index-out-of-range", "buckets-miss-count"],
    )
    def test_malformed_histogram_delta_raises_frame_error(self, buckets, match):
        """A delta whose buckets would disagree with its count once merged
        (``Histogram.merge_delta`` adds them as they are) is refused at
        the boundary."""
        delta = frames.HistogramDelta(
            count=5, total=9.0, min_value=1.0, max_value=3.0, buckets=buckets
        )
        payload = frames.TelemetryPayload(pid=1, shard=1, histograms={"shard/1/h": delta})
        with pytest.raises(frames.FrameError, match=match):
            frames.decode_frame(frames.encode_telemetry_frame(payload))

    def test_unscoped_metric_name_raises_frame_error(self):
        """The parent folds a worker's metric names unchanged, so each must
        hold the sending shard's ``shard/<N>/`` path component."""
        delta = frames.HistogramDelta(
            count=1, total=1.0, min_value=1.0, max_value=1.0, buckets=[(1, 1)]
        )
        for name in ("runtime/hotspot_promotions", "obs/shard/2/band/tau", "shard/10/x"):
            for section, value in (("counters", 1), ("gauges", 1.0), ("histograms", delta)):
                payload = frames.TelemetryPayload(pid=1, shard=1, **{section: {name: value}})
                with pytest.raises(frames.FrameError, match="shard/1/ scope"):
                    frames.decode_frame(frames.encode_telemetry_frame(payload))

    def test_non_utf8_telemetry_name_raises_frame_error(self):
        payload = frames.TelemetryPayload(pid=1, shard=0, counters={"shard/0/abcd": 1})
        encoded = frames.encode_telemetry_frame(payload)
        assert encoded.count(b"abcd") == 1
        with pytest.raises(frames.FrameError):
            frames.decode_frame(encoded.replace(b"abcd", b"ab\xff\xfe"))


# One frame of each body-carrying type at FRAME_VERSION 5: the wire format
# is pinned, not merely self-consistent.  (RESULT and TELEMETRY bodies have
# not changed since version 3.)
GOLDEN_BATCH = (
    "010501efcdab000000000034120000000000000500000001010104040a000000"
    "000000000b000000000000000c000000000000000d000000000000000e000000"
    "0000000001000000000000000200000000000000030000000000000004000000"
    "000000000500000000000000000000000000e03f000000000000044000000000"
    "000010c000000000000018400000000000001a40000000000000f83f00000000"
    "00000c4000000000000020400000000000001c40000000000080514065000000"
    "0000000066000000000000006700000000000000680000000000000069000000"
    "00000000ffffffffffff01000000"
)
GOLDEN_RESULT = (
    "0205000000000000e03f02000000010100000000000000000000000000004000"
    "000000000008400202000000000000000000000000000000000000000000f03f"
    "0200000000000000000000000100000000000000070000000000000008000000"
    "000000000101010000000200000003000000000000000000000001000000"
)
# The wire record of SUB select qid 12, rangeA [0, 5], rangeC [2, 9].
GOLDEN_SUB_SELECT = (
    "060c00000000000000000000000000000000000000000014400000000000"
    "0000400000000000002240"
)
# A SUB select on shards 1-2, an R insert, an UNSUB on shard 0: three
# column slots (the query entries' zero), then the query section.
GOLDEN_QUERY = (
    "0105000000000000000000000000000000000003000000050105000000000000"
    "0000140000000000000000000000000000000000000000000000010000000000"
    "000000000000000000000000000000000000000000000000e03f000000000000"
    "00000000000000000000000000000000f83f0000000000000000000000000000"
    "0000650000000000000000000000000000000000ffff00000100000002000000"
    "060c000000000000000000000000000000000000000000144000000000000000"
    "400000000000002240070700000000000000"
)
GOLDEN_TELEMETRY = (
    "0705921000000000000001000000efcdab000000000002000000010000000c00"
    "776f726b65722e6261746368e803000000000000fa000000000000004d000000"
    "0000000009000000000000003412000000000000efcdab00000000000c000000"
    "7b226576656e7473223a357d010000001e0073686172642f312f7472616e7370"
    "6f72742f6672616d655f6572726f727303000000000000000100000014006f62"
    "732f73686172642f312f68656164726f6f6d000000000000d03f010000002500"
    "73686172642f312f776f726b65722f6532652f696e676573745f746f5f617070"
    "6c795f757302000000000000000000000000003e400000000000002440000000"
    "0000003440020000000400010000000000000005000100000000000000"
)


class TestGoldenBytes:
    def test_batch(self):
        entries = [
            (10, DataEvent(EventKind.INSERT, "R", RTuple(1, 0.5, 1.5)), -1),
            (11, DataEvent(EventKind.INSERT, "R", RTuple(2, 2.5, 3.5)), -1),
            (12, DataEvent(EventKind.INSERT, "R", RTuple(3, -4.0, 8.0)), -1),
            (13, DataEvent(EventKind.DELETE, "S", STuple(4, 6.0, 7.0)), 1),
            (14, DataEvent(EventKind.DELETE, "S", STuple(5, 6.5, 70.0)), 0),
        ]
        encoded = frames.encode_batch_frame(
            entries,
            ingest_ns=[101, 102, 103, 104, 105],
            trace_id=0xABCDEF,
            parent_span_id=0x1234,
            want_telemetry=True,
        )
        assert encoded.hex() == GOLDEN_BATCH
        assert len(encoded) == HEADER + ROW_BYTES * len(entries)
        __, decoded = frames.decode_frame(encoded)
        assert decoded.entries == entries
        assert decoded.ingest_ns == (101, 102, 103, 104, 105)
        assert (decoded.trace_id, decoded.parent_span_id) == (0xABCDEF, 0x1234)
        assert decoded.want_telemetry is True

    def test_result(self):
        results = [
            (0, {7: [_shared_row]}),
            (1, {8: [_shared_row, STuple(2, 0.0, 1.0)]}),
        ]
        encoded = frames.encode_result_frame(0.5, results)
        assert encoded.hex() == GOLDEN_RESULT
        assert frames.decode_frame(encoded) == (frames.FRAME_RESULT, (0.5, results))

    def test_control(self):
        """A subscription change rides the BATCH as a tag-5 entry whose
        placement and wire record follow the columns, in the query section."""
        query = SelectJoinQuery(Interval(0.0, 5.0), Interval(2.0, 9.0), qid=12)
        entries = [
            (-1, QueryEvent(EventKind.INSERT, query), [1, 2]),
            (20, DataEvent(EventKind.INSERT, "R", RTuple(1, 0.5, 1.5)), -1),
            (-1, QueryEvent(EventKind.DELETE, BandJoinQuery(Interval(-1.0, 1.0), qid=7)), [0]),
        ]
        encoded = frames.encode_batch_frame(entries, ingest_ns=[0, 101, 0])
        assert encoded.hex() == GOLDEN_QUERY
        assert encoded[HEADER + 3 * ROW_BYTES + 8 :].startswith(
            bytes.fromhex(GOLDEN_SUB_SELECT)
        )
        frame_type, decoded = frames.decode_frame(bytes.fromhex(GOLDEN_QUERY))
        assert frame_type == frames.FRAME_BATCH
        (__, sub, placement), __, (__, unsub, __) = decoded.entries
        assert sub.kind is EventKind.INSERT and sub.query.qid == 12
        assert (sub.query.range_a, sub.query.range_c) == (query.range_a, query.range_c)
        assert placement == range(1, 3)
        assert unsub.kind is EventKind.DELETE and unsub.query == Unsubscribe(7)
        assert _entries_equal(decoded.entries, entries)

    def test_telemetry(self):
        payload = frames.TelemetryPayload(
            pid=4242,
            shard=1,
            trace_id=0xABCDEF,
            spans_dropped=2,
            spans=[
                SpanRecord(
                    name="worker.batch",
                    ts_ns=1000,
                    dur_ns=250,
                    tid=77,
                    args={"events": 5},
                    pid=4242,
                    trace_id=0xABCDEF,
                    span_id=9,
                    parent_id=0x1234,
                )
            ],
            counters={"shard/1/transport/frame_errors": 3},
            gauges={"obs/shard/1/headroom": 0.25},
            histograms={
                "shard/1/worker/e2e/ingest_to_apply_us": frames.HistogramDelta(
                    count=2,
                    total=30.0,
                    min_value=10.0,
                    max_value=20.0,
                    buckets=[(4, 1), (5, 1)],
                )
            },
        )
        encoded = frames.encode_telemetry_frame(payload)
        assert encoded.hex() == GOLDEN_TELEMETRY
        __, decoded = frames.decode_frame(encoded)
        assert decoded.counters == payload.counters
        assert decoded.gauges == payload.gauges
        assert decoded.histograms == payload.histograms
        assert frames.encode_telemetry_frame(decoded) == encoded
