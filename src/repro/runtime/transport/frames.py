"""Versioned columnar frame codec for the shard data plane.

Built on :mod:`repro.wire` — its row primitive, its record table (a
BATCH's query section carries such records; layouts in ``docs/DURABILITY.md``
§ Codec) and its bounds-checked :class:`~repro.wire.Reader`, constructed
here with :class:`FrameError` — but framed for *throughput* rather than
durability: a micro-batch crosses the process boundary as a handful of
flat arrays instead of one object per event.  :func:`decode_frame` is the
one way in: bytes that are not a valid frame raise :class:`FrameError`
and nothing else.

Every frame starts ``[u8 frame_type][u8 version]``.  Frame types::

    1  BATCH      trace context + ordered shard entries, columnar (below)
    2  RESULT     elapsed + row table + (seq, qid, sign, row-ref) deltas
    5  SHUTDOWN   empty body — worker drains and exits
    6  ERROR      utf-8 message — worker-side exception report
    7  TELEMETRY  worker span batch + metric deltas (return path)

Types 3 and 4 (CONTROL and ACK, a subscription change and its answer
until version 3) are retired: a subscription change is an entry of the
BATCH it rides, and a decoder meets them as unknown types.

**BATCH** (version 5) — a trace-context header
``[u8 flags][u64 trace_id][u64 parent_span_id]`` then ``u32 n_entries``
and *one* set of flat columns over all n entries, in entry order, so a
batch costs a fixed number of ``struct`` calls however its kinds and
relations interleave.  ``flags`` bit0 requests a TELEMETRY frame after
the RESULT; ``trace_id``/``parent_span_id`` propagate the parent's trace
so worker spans join it (zero means untraced).  The columns::

    tag     <{n}B    1 INSERT R, 2 INSERT S, 3 DELETE R, 4 DELETE S, 5 QUERY
    seqs    <{n}q    event sequence numbers
    ids     <{n}q    rid (R) or sid (S)
    x       <{n}d    a (R) or b (S)
    y       <{n}d    b (R) or c (S)
    ingest  <{n}q    parent-side perf_counter_ns at ingest (0 = unknown)
    owner   <{n}h    select-plane shard of an S row, -1 for an R row

then the *query section*: for the q entries tagged 5 (subscription
changes), in entry order, their placements, then their records::

    lo      <{q}h    first shard of the query's placement
    hi      <{q}h    last shard of the query's placement (a contiguous range)
    records          q wire records back to back: SUB band, SUB select, UNSUB

A query entry's data slots are written as zeros; it decodes with seq -1
and ingest 0 (it answers nothing), its placement as ``range(lo, hi + 1)``
and an UNSUB as ``QueryEvent(DELETE, Unsubscribe(qid))`` — the qid is
all a worker needs to cancel what it holds.

The frame says nothing about its recipient — ``owner`` is the router's
one decision per event, a placement its one decision per query, and each
shard compares them with its own index — so a batch is encoded once and
the same bytes go to every worker.

The ingest column carries CLOCK_MONOTONIC readings, which share an
origin across processes on one host — the worker subtracts them from its
own clock to produce end-to-end latency without any wall-clock exchange.

Columns are contiguous little-endian int64/float64, so a numpy consumer can
``frombuffer`` them with zero copies (the worker's fastpath kernels
consume exactly such flat columns); this module itself stays pure-``struct``
— numpy imports are confined to the kernel allowlist (RA002).

**TELEMETRY** — the worker-to-parent observability return path, carried
over the same response ring as RESULT (strictly after a RESULT whose
BATCH requested it, so the one-frame-in-flight protocol is preserved).
Body: ``[u64 pid][u32 shard][u64 trace_id][u32 spans_dropped]`` then
three length-prefixed sections::

    u32 n_spans      per span: [u16 len]name  <qqQQQQ> ts dur tid
                     span_id parent_id trace_id  [u32 len]args-JSON
    u32 n_counters   per item: [u16 len]name  <q>  delta since last ship
    u32 n_gauges     per item: [u16 len]name  <d>  current value
    u32 n_histograms per item: [u16 len]name  <QdddI> count sum min max
                     n_buckets, then n_buckets x <HQ> (index, delta)

Counter and histogram sections are *deltas* (merging is addition on the
parent); gauges are last-writer-wins absolutes.  Every metric name holds
the sending shard's ``shard/<N>/`` path component — the parent folds names
unchanged — and the decoder refuses one that does not.  Span ``args`` ride as
UTF-8 JSON (data, not code — unlike pickle nothing executes on load),
with 0 length meaning no args.

**RESULT** — ``f64 elapsed`` (NaN: the shard held no query and applied
nothing), a deduplicated row table of ``u32 n_rows``
records ``<Bqdd>`` (tag 1 = R row rid/a/b, tag 2 = S row sid/b/c), then
the delta tuples as flat columns — one *group* per (seq, qid) pair with a
non-empty delta, groups in sequence order::

    u32 n_groups
    seqs    <{g}q   event sequence number per group
    qids    <{g}q   query id per group
    signs   <{g}b   +1 for every current delta
    counts  <{g}I   row references per group
    u32 total_refs
    refs    <{t}I   row-table indices, group-major

``sign`` is +1 always today (the engine emits matches only); it is
carried on the wire so retractions can ship without a version bump.  Row
references index the frame's own row table, so a row matched by many
queries crosses the boundary once; empty deltas are elided entirely —
the pipeline pre-initializes every sequence's result slot, so absence
and emptiness are indistinguishable on the consuming side.

NaN endpoints round-trip bit-exactly (values are moved by ``struct``,
never compared), which the property tests pin down.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.obs.tracing import SpanRecord
from repro.runtime.metrics import N_HISTOGRAM_BUCKETS
from repro.runtime.sharding import ShardEntry
from repro.runtime.transport.shm import TransportError
from repro.wire import (
    ROW,
    ROW_FIELDS,
    ROW_TYPES,
    Reader,
    Unsubscribe,
    encode_event,
    read_record,
)

__all__ = [
    "FRAME_VERSION",
    "FRAME_BATCH",
    "FRAME_RESULT",
    "FRAME_SHUTDOWN",
    "FRAME_ERROR",
    "FRAME_TELEMETRY",
    "FrameError",
    "QidDeltas",
    "SeqResults",
    "DecodedBatch",
    "HistogramDelta",
    "TelemetryPayload",
    "encode_batch_frame",
    "encode_result_frame",
    "encode_shutdown_frame",
    "encode_error_frame",
    "encode_telemetry_frame",
    "decode_frame",
]

FRAME_VERSION = 5

FRAME_BATCH = 1
FRAME_RESULT = 2
FRAME_SHUTDOWN = 5
FRAME_ERROR = 6
FRAME_TELEMETRY = 7

#: BATCH flags bit0: the worker should follow its RESULT with a TELEMETRY.
BATCH_FLAG_TELEMETRY = 1

_HDR = struct.Struct("<BB")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_BATCH_CTX = struct.Struct("<BQQI")  # flags, trace_id, parent_span_id, n_entries
_TELE_CTX = struct.Struct("<QIQI")  # pid, shard, trace_id, spans_dropped
_TELE_SPAN = struct.Struct("<qqQQQQ")  # ts, dur, tid, span_id, parent_id, trace_id
_TELE_HIST = struct.Struct("<QdddI")  # count, sum, min, max, n_buckets
_TELE_BUCKET = struct.Struct("<HQ")  # bucket index, count delta

#: RESULT row-table tag -> relation of the row under it, and row type ->
#: (tag, row fields).
_ROW_RELATIONS = {1: "R", 2: "S"}
_ROW_TAGS = {
    ROW_TYPES[relation]: (tag, ROW_FIELDS[relation])
    for tag, relation in _ROW_RELATIONS.items()
}

#: Per-query delta rows keyed by qid (the worker side of
#: :data:`repro.runtime.sharding.Delta`, which keys by query object).
QidDeltas = Dict[int, List[Any]]
#: One batch's results: ``(seq, deltas)`` in application order.
SeqResults = List[Tuple[int, QidDeltas]]


class FrameError(TransportError):
    """A frame does not match the wire format."""


#: BATCH entry tag of a subscription change; 1-4 are the data tags below.
_TAG_QUERY = 5
#: Relation -> (INSERT tag, DELETE tag) of its data entries.
_TAGS = {"R": (1, 3), "S": (2, 4)}
#: Data entry tag -> (kind, relation, row type).
_DATA_TAGS = {
    tags[deleting]: (kind, relation, ROW_TYPES[relation])
    for relation, tags in _TAGS.items()
    for deleting, kind in enumerate((EventKind.INSERT, EventKind.DELETE))
}
#: A query entry's column slots: tag, then zero seq/id/x/y/ingest/owner.
_QUERY_SLOTS = (_TAG_QUERY, 0, 0, 0.0, 0.0, 0, 0)


# -- BATCH -------------------------------------------------------------------


@dataclass(slots=True)
class DecodedBatch:
    """A decoded BATCH frame: the ordered entries plus trace context.

    ``ingest_ns`` is parallel to ``entries`` (0 = ingest time unknown,
    and every query entry's); ``want_telemetry`` mirrors BATCH flag bit0.
    """

    entries: List[ShardEntry]
    ingest_ns: Tuple[int, ...] = ()
    trace_id: int = 0
    parent_span_id: int = 0
    want_telemetry: bool = False


def encode_batch_frame(
    entries: Sequence[ShardEntry],
    *,
    ingest_ns: Optional[Sequence[int]] = None,
    trace_id: int = 0,
    parent_span_id: int = 0,
    want_telemetry: bool = False,
) -> bytes:
    """Encode an ordered shard batch as one column set and a query section.

    ``ingest_ns`` (parallel to ``entries``) stamps each entry's
    parent-side monotonic ingest time; omitted means "unknown" and
    encodes as zeros.  A query entry's seq and ingest stamp are not
    encoded.
    """
    if ingest_ns is not None and len(ingest_ns) != len(entries):
        raise FrameError("ingest_ns must be parallel to entries")
    slots: List[Tuple[Any, ...]] = []
    queries: List[Tuple[QueryEvent, Any]] = []
    stamps = repeat(0) if ingest_ns is None else ingest_ns
    for (seq, event, where), stamp in zip(entries, stamps):
        if isinstance(event, QueryEvent):
            slots.append(_QUERY_SLOTS)
            queries.append((event, where))
            continue
        relation = event.relation
        row_id, x, y = ROW_FIELDS[relation](event.row)
        tag = _TAGS[relation][event.kind is EventKind.DELETE]
        slots.append((tag, seq, row_id, x, y, stamp, where))
    n, q = len(entries), len(queries)
    parts = [struct.pack(
        f"<BBBQQI{n}B{n}q{n}q{n}d{n}d{n}q{n}h",
        FRAME_BATCH,
        FRAME_VERSION,
        BATCH_FLAG_TELEMETRY if want_telemetry else 0,
        trace_id,
        parent_span_id,
        n,
        *chain.from_iterable(zip(*slots)),
    )]
    if queries:
        parts.append(struct.pack(
            f"<{q}h{q}h",
            *[where[0] for __, where in queries],
            *[where[-1] for __, where in queries],
        ))
        parts.extend(encode_event(event) for event, __ in queries)
    return b"".join(parts)


def _read_batch(reader: Reader) -> DecodedBatch:
    flags_byte, trace_id, parent_span_id, n = reader.unpack(
        _BATCH_CTX, "batch header"
    )
    flat = reader.columns(f"{n}B{n}q{n}q{n}d{n}d{n}q{n}h", "batch columns")
    tags = flat[:n]
    queries = iter(_read_queries(reader, tags.count(_TAG_QUERY)))
    entries: List[ShardEntry] = []
    for tag, seq, row_id, x, y, owner in zip(
        tags, flat[n:], flat[2 * n :], flat[3 * n :], flat[4 * n :], flat[6 * n :]
    ):
        data = _DATA_TAGS.get(tag)
        if data is None:
            if tag != _TAG_QUERY:
                raise FrameError(f"unknown batch entry tag {tag}")
            entries.append(next(queries))
            continue
        kind, relation, row_type = data
        if (owner != -1) if relation == "R" else (owner < 0):
            raise FrameError(
                f"batch entry (tag {tag}): owner must be -1 for an R row "
                "and a shard index for an S row"
            )
        entries.append(
            (seq, DataEvent(kind, relation, row_type(row_id, x, y)), owner)
        )
    return DecodedBatch(
        entries=entries,
        ingest_ns=flat[5 * n : 6 * n],
        trace_id=trace_id,
        parent_span_id=parent_span_id,
        want_telemetry=bool(flags_byte & BATCH_FLAG_TELEMETRY),
    )


def _read_queries(reader: Reader, n: int) -> List[ShardEntry]:
    """The ``n`` entries of a query section."""
    flat = reader.columns(f"{n}h{n}h", "query section placements")
    entries: List[ShardEntry] = []
    for lo, hi in zip(flat, flat[n:]):
        if not 0 <= lo <= hi:
            raise FrameError(
                f"query section placement [{lo}, {hi}] is not a shard range"
            )
        record = read_record(reader)
        event: QueryEvent
        if isinstance(record, Unsubscribe):
            event = QueryEvent(EventKind.DELETE, record)
        elif isinstance(record, QueryEvent):
            event = record
        else:
            raise FrameError("query section holds a data record")
        entries.append((-1, event, range(lo, hi + 1)))
    return entries


# -- RESULT ------------------------------------------------------------------


def encode_result_frame(elapsed: float, results: SeqResults) -> bytes:
    """Encode one batch's worker results against a deduplicated row table.

    Empty deltas are elided (see module docstring).  Rows are deduplicated
    by object identity first — within one batch a matched row is the same
    stored table object however many queries it satisfies — with value
    identity as the correctness backstop on the decode side (decoded rows
    are frozen value-equal dataclasses).
    """
    row_index: Dict[int, int] = {}
    row_records: List[bytes] = []
    seqs: List[int] = []
    qids: List[int] = []
    counts: List[int] = []
    refs: List[int] = []
    for seq, deltas in results:
        for qid, rows in deltas.items():
            if not rows:
                continue
            seqs.append(seq)
            qids.append(qid)
            counts.append(len(rows))
            for row in rows:
                key = id(row)
                index = row_index.get(key)
                if index is None:
                    index = len(row_records)
                    row_index[key] = index
                    tagged = _ROW_TAGS.get(type(row))
                    if tagged is None:
                        raise FrameError(
                            f"unsupported result row type: {type(row).__name__}"
                        )
                    tag, fields = tagged
                    row_id, x, y = fields(row)
                    row_records.append(ROW.pack(tag, row_id, x, y))
                refs.append(index)
    g = len(seqs)
    return b"".join(
        [
            _HDR.pack(FRAME_RESULT, FRAME_VERSION),
            _F64.pack(elapsed),
            _U32.pack(len(row_records)),
            *row_records,
            _U32.pack(g),
            struct.pack(f"<{g}q", *seqs),
            struct.pack(f"<{g}q", *qids),
            struct.pack(f"<{g}b", *([1] * g)),
            struct.pack(f"<{g}I", *counts),
            _U32.pack(len(refs)),
            struct.pack(f"<{len(refs)}I", *refs),
        ]
    )


def _read_result(reader: Reader) -> Tuple[float, SeqResults]:
    (elapsed,) = reader.unpack(_F64, "result elapsed")
    (n_rows,) = reader.unpack(_U32, "result row count")
    rows: List[Any] = []
    for tag, row_id, x, y in ROW.iter_unpack(
        reader.take(n_rows * ROW.size, "result row table")
    ):
        relation = _ROW_RELATIONS.get(tag)
        if relation is None:
            raise FrameError(f"unknown result row tag {tag}")
        rows.append(ROW_TYPES[relation](row_id, x, y))
    (g,) = reader.unpack(_U32, "result group count")
    flat = reader.columns(f"{g}q{g}q{g}b{g}I", "result delta columns")
    seqs, qids, signs = flat[:g], flat[g : 2 * g], flat[2 * g : 3 * g]
    counts = flat[3 * g :]
    (total_refs,) = reader.unpack(_U32, "result ref count")
    refs = reader.columns(f"{total_refs}I", "result refs")
    if sum(counts) != total_refs:
        raise FrameError("result group counts do not sum to total refs")
    results: SeqResults = []
    deltas: QidDeltas = {}
    last_seq = None
    pos = 0
    row_at = rows.__getitem__
    try:
        for i in range(g):
            if signs[i] != 1:
                raise FrameError(f"unsupported delta sign {signs[i]}")
            if seqs[i] != last_seq:
                deltas = {}
                results.append((seqs[i], deltas))
                last_seq = seqs[i]
            deltas[qids[i]] = list(map(row_at, refs[pos : pos + counts[i]]))
            pos += counts[i]
    except IndexError:
        raise FrameError("result row reference out of range") from None
    return elapsed, results


# -- lifecycle frames --------------------------------------------------------


def encode_shutdown_frame() -> bytes:
    return _HDR.pack(FRAME_SHUTDOWN, FRAME_VERSION)


def encode_error_frame(message: str) -> bytes:
    return _HDR.pack(FRAME_ERROR, FRAME_VERSION) + message.encode(
        "utf-8", errors="replace"
    )


# -- TELEMETRY ---------------------------------------------------------------


@dataclass(slots=True)
class HistogramDelta:
    """Additive histogram delta: counts/sum since the last ship, lifetime
    min/max (folded via min/max on merge), nonzero bucket deltas as
    ``(index, added)`` pairs."""

    count: int
    total: float
    min_value: float
    max_value: float
    buckets: List[Tuple[int, int]] = field(default_factory=list)


@dataclass(slots=True)
class TelemetryPayload:
    """One worker's observability delta: spans since the last ship plus
    counter deltas, gauge absolutes, and histogram deltas."""

    pid: int
    shard: int
    trace_id: int = 0
    spans_dropped: int = 0
    spans: List[SpanRecord] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramDelta] = field(default_factory=dict)


def _pack_name(name: str) -> bytes:
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise FrameError(f"name too long to encode ({len(encoded)} bytes)")
    return _U16.pack(len(encoded)) + encoded


def encode_telemetry_frame(payload: TelemetryPayload) -> bytes:
    """Encode a worker telemetry delta (spans + metric deltas)."""
    parts: List[bytes] = [
        _HDR.pack(FRAME_TELEMETRY, FRAME_VERSION),
        _TELE_CTX.pack(
            payload.pid,
            payload.shard,
            payload.trace_id,
            # u32 on the wire; a drop counter past 4B spans only needs to
            # stay honest about "a lot", not exact.
            min(payload.spans_dropped, 0xFFFF_FFFF),
        ),
        _U32.pack(len(payload.spans)),
    ]
    for span in payload.spans:
        args_blob = (
            json.dumps(span.args, separators=(",", ":")).encode("utf-8")
            if span.args
            else b""
        )
        parts.append(_pack_name(span.name))
        parts.append(
            _TELE_SPAN.pack(
                span.ts_ns,
                span.dur_ns,
                span.tid,
                span.span_id,
                span.parent_id,
                span.trace_id,
            )
        )
        parts.append(_U32.pack(len(args_blob)))
        parts.append(args_blob)
    parts.append(_U32.pack(len(payload.counters)))
    for name, delta in sorted(payload.counters.items()):
        parts.append(_pack_name(name))
        parts.append(_I64.pack(delta))
    parts.append(_U32.pack(len(payload.gauges)))
    for name, value in sorted(payload.gauges.items()):
        parts.append(_pack_name(name))
        parts.append(_F64.pack(value))
    parts.append(_U32.pack(len(payload.histograms)))
    for name, hist in sorted(payload.histograms.items()):
        parts.append(_pack_name(name))
        parts.append(
            _TELE_HIST.pack(
                hist.count,
                hist.total,
                hist.min_value,
                hist.max_value,
                len(hist.buckets),
            )
        )
        for index, added in hist.buckets:
            parts.append(_TELE_BUCKET.pack(index, added))
    return b"".join(parts)


def _read_telemetry(reader: Reader) -> TelemetryPayload:
    pid, shard, trace_id, spans_dropped = reader.unpack(
        _TELE_CTX, "telemetry context header"
    )
    scope = f"/shard/{shard}/"

    def scoped(name: str) -> str:
        # The parent folds metric names as they arrive: a name outside the
        # sending shard's scope would land in another shard's, or in none.
        if scope not in f"/{name}":
            raise FrameError(f"metric {name!r} lacks the shard/{shard}/ scope")
        return name

    (n_spans,) = reader.unpack(_U32, "telemetry span count")
    spans: List[SpanRecord] = []
    for _ in range(n_spans):
        name = reader.text(_U16, "telemetry span name")
        ts_ns, dur_ns, tid, span_id, parent_id, span_trace = reader.unpack(
            _TELE_SPAN, "telemetry span"
        )
        args_json = reader.text(_U32, "telemetry span args")
        spans.append(
            SpanRecord(
                name=name,
                ts_ns=ts_ns,
                dur_ns=dur_ns,
                tid=tid,
                args=reader.build(json.loads, args_json) if args_json else None,
                pid=pid,
                trace_id=span_trace,
                span_id=span_id,
                parent_id=parent_id,
            )
        )
    (n_counters,) = reader.unpack(_U32, "telemetry counter count")
    counters: Dict[str, int] = {}
    for _ in range(n_counters):
        name = scoped(reader.text(_U16, "telemetry counter name"))
        (counters[name],) = reader.unpack(_I64, "telemetry counter")
    (n_gauges,) = reader.unpack(_U32, "telemetry gauge count")
    gauges: Dict[str, float] = {}
    for _ in range(n_gauges):
        name = scoped(reader.text(_U16, "telemetry gauge name"))
        (gauges[name],) = reader.unpack(_F64, "telemetry gauge")
    (n_histograms,) = reader.unpack(_U32, "telemetry histogram count")
    histograms: Dict[str, HistogramDelta] = {}
    for _ in range(n_histograms):
        name = scoped(reader.text(_U16, "telemetry histogram name"))
        count, total, min_value, max_value, n_buckets = reader.unpack(
            _TELE_HIST, "telemetry histogram header"
        )
        buckets = list(
            _TELE_BUCKET.iter_unpack(
                reader.take(n_buckets * _TELE_BUCKET.size, "telemetry histogram buckets")
            )
        )
        # Histogram.merge_delta adds these as they are: an index past the
        # last bucket, or deltas that miss ``count``, would leave the
        # merged count disagreeing with its buckets.
        if any(index >= N_HISTOGRAM_BUCKETS for index, _ in buckets):
            raise FrameError(f"histogram {name!r} has a bucket index out of range")
        if sum(added for _, added in buckets) != count:
            raise FrameError(f"histogram {name!r} bucket deltas do not sum to its count")
        histograms[name] = HistogramDelta(
            count=count,
            total=total,
            min_value=min_value,
            max_value=max_value,
            buckets=buckets,
        )
    return TelemetryPayload(
        pid=pid,
        shard=shard,
        trace_id=trace_id,
        spans_dropped=spans_dropped,
        spans=spans,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
    )


def _read_error(reader: Reader) -> str:
    message = reader.take(reader.remaining, "error message")
    return message.decode("utf-8", errors="replace")


def _read_nothing(reader: Reader) -> None:
    reader.expect_end("the header of a frame type that carries no body")


#: Frame type -> reader of its body.
_BODY_READERS: Dict[int, Callable[[Reader], Any]] = {
    FRAME_BATCH: _read_batch,
    FRAME_RESULT: _read_result,
    FRAME_SHUTDOWN: _read_nothing,
    FRAME_ERROR: _read_error,
    FRAME_TELEMETRY: _read_telemetry,
}


def decode_frame(payload: bytes) -> Tuple[int, Any]:
    """Validate the frame header and decode the body.

    Returns ``(frame_type, body)`` where the body is: a
    :class:`DecodedBatch` for BATCH, ``(elapsed, results)`` for RESULT, a
    :class:`TelemetryPayload` for TELEMETRY, the message string for
    ERROR, and ``None`` for SHUTDOWN.  Anything else raises
    :class:`FrameError`.
    """
    if len(payload) < _HDR.size:
        raise FrameError(f"frame of {len(payload)} byte(s) has no header")
    reader = Reader(payload, FrameError)
    frame_type, version = reader.unpack(_HDR, "frame header")
    if version != FRAME_VERSION:
        raise FrameError(
            f"frame version {version} unsupported (expected {FRAME_VERSION})"
        )
    read_body = _BODY_READERS.get(frame_type)
    if read_body is None:
        raise FrameError(f"unknown frame type {frame_type}")
    body = read_body(reader)
    reader.expect_end(f"the body of frame type {frame_type}")
    return frame_type, body
