"""Versioned columnar frame codec for the shard data plane.

Same philosophy as :mod:`repro.durability.codec` (tagged little-endian
``struct`` layouts, no pickle: pickle executes code on load, changes shape
across refactors, and cannot be validated byte-by-byte) — but framed for
*throughput* rather than durability: a micro-batch crosses the process
boundary as a handful of flat arrays instead of one pickled object per
event.

Every frame starts ``[u8 frame_type][u8 version]``.  Frame types::

    1  BATCH      trace context + ordered shard entries, columnar (below)
    2  RESULT     elapsed + row table + (seq, qid, sign, row-ref) deltas
    3  CONTROL    one durability-codec record (SUB band/select, UNSUB)
    4  ACK        empty body — control acknowledged
    5  SHUTDOWN   empty body — worker drains and exits
    6  ERROR      utf-8 message — worker-side exception report
    7  TELEMETRY  worker span batch + metric deltas (return path)

**BATCH** (version 3) — a trace-context header
``[u8 flags][u64 trace_id][u64 parent_span_id]`` then ``u32 n_entries``
and *segments*.  ``flags`` bit0 requests a TELEMETRY frame after the
RESULT; ``trace_id``/``parent_span_id`` propagate the parent's trace so
worker spans join it (zero means untraced).  The entry list is split
into maximal runs of the same (kind, relation); each run is one segment
``[u8 seg_tag][u32 count]`` followed by flat columns::

    seqs    <{n}q    event sequence numbers
    ids     <{n}q    rid (R) or sid (S)
    x       <{n}d    a (R) or b (S)
    y       <{n}d    b (R) or c (S)
    ingest  <{n}q    parent-side perf_counter_ns at ingest (0 = unknown)
    owner   <{n}h    select-plane shard of an S row, -1 for an R row

The frame says nothing about its recipient — ``owner`` is the router's
one decision per event and each shard compares it with its own index —
so a batch is encoded once and the same bytes go to every worker.

The ingest column carries CLOCK_MONOTONIC readings, which share an
origin across processes on one host — the worker subtracts them from its
own clock to produce end-to-end latency without any wall-clock exchange.

Segment tags: 1 INSERT_R, 2 INSERT_S, 3 DELETE_R, 4 DELETE_S.  Columns
are contiguous little-endian int64/float64, so a numpy consumer can
``frombuffer`` them with zero copies (the worker's fastpath kernels
consume exactly such flat columns); this module itself stays pure-``struct``
— numpy imports are confined to the kernel allowlist (RA002).

**TELEMETRY** — the worker-to-parent observability return path, carried
over the same response ring as RESULT/ACK (strictly after a RESULT whose
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
parent); gauges are last-writer-wins absolutes.  Span ``args`` ride as
UTF-8 JSON (data, not code — unlike pickle nothing executes on load),
with 0 length meaning no args.

**RESULT** — ``f64 elapsed``, a deduplicated row table of ``u32 n_rows``
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.durability.codec import decode_record, encode_event
from repro.engine.events import DataEvent, EventKind
from repro.engine.table import RTuple, STuple
from repro.obs.tracing import SpanRecord
from repro.runtime.sharding import ShardEntry
from repro.runtime.transport.shm import TransportError

__all__ = [
    "FRAME_VERSION",
    "FRAME_BATCH",
    "FRAME_RESULT",
    "FRAME_CONTROL",
    "FRAME_ACK",
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
    "decode_batch_frame",
    "encode_result_frame",
    "decode_result_frame",
    "encode_control_frame",
    "encode_ack_frame",
    "encode_shutdown_frame",
    "encode_error_frame",
    "encode_telemetry_frame",
    "decode_telemetry_frame",
    "decode_frame",
]

FRAME_VERSION = 3

FRAME_BATCH = 1
FRAME_RESULT = 2
FRAME_CONTROL = 3
FRAME_ACK = 4
FRAME_SHUTDOWN = 5
FRAME_ERROR = 6
FRAME_TELEMETRY = 7

#: BATCH flags bit0: the worker should follow its RESULT with a TELEMETRY.
BATCH_FLAG_TELEMETRY = 1

_SEG_INSERT_R = 1
_SEG_INSERT_S = 2
_SEG_DELETE_R = 3
_SEG_DELETE_S = 4

_HDR = struct.Struct("<BB")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_SEG = struct.Struct("<BI")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_ROW = struct.Struct("<Bqdd")  # row-table record: tag, id, x, y
_BATCH_CTX = struct.Struct("<BQQ")  # flags, trace_id, parent_span_id
_ENTRY_BYTES = 5 * 8 + 2  # one BATCH entry over the six segment columns
_TELE_CTX = struct.Struct("<QIQI")  # pid, shard, trace_id, spans_dropped
_TELE_SPAN = struct.Struct("<qqQQQQ")  # ts, dur, tid, span_id, parent_id, trace_id
_TELE_HIST = struct.Struct("<QdddI")  # count, sum, min, max, n_buckets
_TELE_BUCKET = struct.Struct("<HQ")  # bucket index, count delta

_ROW_TAG_R = 1
_ROW_TAG_S = 2

#: Per-query delta rows keyed by qid (the worker side of
#: :data:`repro.runtime.sharding.Delta`, which keys by query object).
QidDeltas = Dict[int, List[Any]]
#: One batch's results: ``(seq, deltas)`` in application order.
SeqResults = List[Tuple[int, QidDeltas]]


class FrameError(TransportError):
    """A frame does not match the wire format."""


#: Segment tag -> (kind, relation, row type) of every entry in the segment.
_SEGMENTS = {
    _SEG_INSERT_R: (EventKind.INSERT, "R", RTuple),
    _SEG_INSERT_S: (EventKind.INSERT, "S", STuple),
    _SEG_DELETE_R: (EventKind.DELETE, "R", RTuple),
    _SEG_DELETE_S: (EventKind.DELETE, "S", STuple),
}


def _seg_tag(event: DataEvent) -> int:
    if event.relation == "R":
        return _SEG_INSERT_R if event.kind is EventKind.INSERT else _SEG_DELETE_R
    return _SEG_INSERT_S if event.kind is EventKind.INSERT else _SEG_DELETE_S


# -- BATCH -------------------------------------------------------------------


@dataclass(slots=True)
class DecodedBatch:
    """A decoded BATCH frame: the ordered entries plus trace context.

    ``ingest_ns`` is parallel to ``entries`` (0 = ingest time unknown);
    ``want_telemetry`` mirrors BATCH flag bit0.
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
    """Encode an ordered shard batch as columnar run segments.

    ``ingest_ns`` (parallel to ``entries``) stamps each entry's
    parent-side monotonic ingest time; omitted means "unknown" and
    encodes as zeros.
    """
    if ingest_ns is not None and len(ingest_ns) != len(entries):
        raise FrameError("ingest_ns must be parallel to entries")
    flags_byte = BATCH_FLAG_TELEMETRY if want_telemetry else 0
    parts: List[bytes] = [
        _HDR.pack(FRAME_BATCH, FRAME_VERSION),
        _BATCH_CTX.pack(flags_byte, trace_id, parent_span_id),
        _U32.pack(len(entries)),
    ]
    i, total = 0, len(entries)
    while i < total:
        tag = _seg_tag(entries[i][1])
        j = i + 1
        while j < total and _seg_tag(entries[j][1]) == tag:
            j += 1
        n = j - i
        run = entries[i:j]
        seqs = [entry[0] for entry in run]
        if tag in (_SEG_INSERT_R, _SEG_DELETE_R):
            ids = [entry[1].row.rid for entry in run]
            xs = [entry[1].row.a for entry in run]
            ys = [entry[1].row.b for entry in run]
        else:
            ids = [entry[1].row.sid for entry in run]
            xs = [entry[1].row.b for entry in run]
            ys = [entry[1].row.c for entry in run]
        ingest = ingest_ns[i:j] if ingest_ns is not None else [0] * n
        parts.append(_SEG.pack(tag, n))
        parts.append(struct.pack(f"<{n}q", *seqs))
        parts.append(struct.pack(f"<{n}q", *ids))
        parts.append(struct.pack(f"<{n}d", *xs))
        parts.append(struct.pack(f"<{n}d", *ys))
        parts.append(struct.pack(f"<{n}q", *ingest))
        parts.append(struct.pack(f"<{n}h", *[entry[2] for entry in run]))
        i = j
    return b"".join(parts)


def decode_batch_frame(payload: bytes) -> DecodedBatch:
    """Decode a BATCH frame body back into entries + trace context."""
    offset = _HDR.size
    if offset + _BATCH_CTX.size + _U32.size > len(payload):
        raise FrameError("truncated batch context header")
    flags_byte, trace_id, parent_span_id = _BATCH_CTX.unpack_from(payload, offset)
    offset += _BATCH_CTX.size
    (n_entries,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    entries: List[ShardEntry] = []
    ingest_all: List[int] = []
    while len(entries) < n_entries:
        if offset + _SEG.size > len(payload):
            raise FrameError("truncated batch segment header")
        tag, n = _SEG.unpack_from(payload, offset)
        offset += _SEG.size
        segment = _SEGMENTS.get(tag)
        if segment is None:
            raise FrameError(f"unknown batch segment tag {tag}")
        kind, relation, row_type = segment
        if not 0 < n <= n_entries - len(entries):
            raise FrameError(
                f"batch segment of {n} entries with {n_entries - len(entries)} "
                f"of the header's {n_entries} left"
            )
        if offset + _ENTRY_BYTES * n > len(payload):
            raise FrameError(f"truncated batch segment (tag {tag}, n {n})")
        seqs = struct.unpack_from(f"<{n}q", payload, offset)
        offset += 8 * n
        ids = struct.unpack_from(f"<{n}q", payload, offset)
        offset += 8 * n
        xs = struct.unpack_from(f"<{n}d", payload, offset)
        offset += 8 * n
        ys = struct.unpack_from(f"<{n}d", payload, offset)
        offset += 8 * n
        ingest_all.extend(struct.unpack_from(f"<{n}q", payload, offset))
        offset += 8 * n
        owners = struct.unpack_from(f"<{n}h", payload, offset)
        offset += 2 * n
        if (owners.count(-1) != n) if relation == "R" else (min(owners) < 0):
            raise FrameError(
                f"batch segment (tag {tag}): owner must be -1 for an R row "
                "and a shard index for an S row"
            )
        for seq, row_id, x, y, owner in zip(seqs, ids, xs, ys, owners):
            entries.append(
                (seq, DataEvent(kind, relation, row_type(row_id, x, y)), owner)
            )
    if offset != len(payload):
        raise FrameError(
            f"{len(payload) - offset} trailing byte(s) after batch segments"
        )
    return DecodedBatch(
        entries=entries,
        ingest_ns=tuple(ingest_all),
        trace_id=trace_id,
        parent_span_id=parent_span_id,
        want_telemetry=bool(flags_byte & BATCH_FLAG_TELEMETRY),
    )


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
                    if isinstance(row, RTuple):
                        row_records.append(
                            _ROW.pack(_ROW_TAG_R, row.rid, row.a, row.b)
                        )
                    elif isinstance(row, STuple):
                        row_records.append(
                            _ROW.pack(_ROW_TAG_S, row.sid, row.b, row.c)
                        )
                    else:
                        raise FrameError(
                            f"unsupported result row type: {type(row).__name__}"
                        )
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


def decode_result_frame(payload: bytes) -> Tuple[float, SeqResults]:
    """Decode a RESULT frame body back into ``(elapsed, results)``."""
    offset = _HDR.size
    if offset + _F64.size + _U32.size > len(payload):
        raise FrameError("truncated result header")
    (elapsed,) = _F64.unpack_from(payload, offset)
    offset += _F64.size
    (n_rows,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    if offset + n_rows * _ROW.size > len(payload):
        raise FrameError("truncated result row table")
    rows: List[Any] = []
    for tag, row_id, x, y in _ROW.iter_unpack(
        payload[offset : offset + n_rows * _ROW.size]
    ):
        if tag == _ROW_TAG_R:
            rows.append(RTuple(row_id, x, y))
        elif tag == _ROW_TAG_S:
            rows.append(STuple(row_id, x, y))
        else:
            raise FrameError(f"unknown result row tag {tag}")
    offset += n_rows * _ROW.size
    if offset + _U32.size > len(payload):
        raise FrameError("truncated result group count")
    (g,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    if offset + g * (8 + 8 + 1 + 4) + _U32.size > len(payload):
        raise FrameError("truncated result delta columns")
    seqs = struct.unpack_from(f"<{g}q", payload, offset)
    offset += 8 * g
    qids = struct.unpack_from(f"<{g}q", payload, offset)
    offset += 8 * g
    signs = struct.unpack_from(f"<{g}b", payload, offset)
    offset += g
    counts = struct.unpack_from(f"<{g}I", payload, offset)
    offset += 4 * g
    (total_refs,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    if offset + 4 * total_refs != len(payload):
        raise FrameError("result refs array does not match frame length")
    refs = struct.unpack_from(f"<{total_refs}I", payload, offset)
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


# -- control / lifecycle frames ----------------------------------------------


def encode_control_frame(event: object) -> bytes:
    """Wrap one durability-codec record (SUB/UNSUB) as a control frame."""
    return _HDR.pack(FRAME_CONTROL, FRAME_VERSION) + encode_event(event)


def encode_ack_frame() -> bytes:
    return _HDR.pack(FRAME_ACK, FRAME_VERSION)


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


def _unpack_name(payload: bytes, offset: int) -> Tuple[str, int]:
    if offset + _U16.size > len(payload):
        raise FrameError("truncated telemetry name length")
    (length,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    if offset + length > len(payload):
        raise FrameError("truncated telemetry name")
    return payload[offset : offset + length].decode("utf-8"), offset + length


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


def decode_telemetry_frame(payload: bytes) -> TelemetryPayload:
    """Decode a TELEMETRY frame body back into a :class:`TelemetryPayload`."""
    offset = _HDR.size
    if offset + _TELE_CTX.size + _U32.size > len(payload):
        raise FrameError("truncated telemetry context header")
    pid, shard, trace_id, spans_dropped = _TELE_CTX.unpack_from(payload, offset)
    offset += _TELE_CTX.size
    (n_spans,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    spans: List[SpanRecord] = []
    for _ in range(n_spans):
        name, offset = _unpack_name(payload, offset)
        if offset + _TELE_SPAN.size + _U32.size > len(payload):
            raise FrameError("truncated telemetry span")
        ts_ns, dur_ns, tid, span_id, parent_id, span_trace = _TELE_SPAN.unpack_from(
            payload, offset
        )
        offset += _TELE_SPAN.size
        (args_len,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        if offset + args_len > len(payload):
            raise FrameError("truncated telemetry span args")
        args: Optional[Dict[str, Any]] = None
        if args_len:
            try:
                args = json.loads(payload[offset : offset + args_len])
            except ValueError as exc:
                raise FrameError(f"bad telemetry span args: {exc}") from None
        offset += args_len
        spans.append(
            SpanRecord(
                name=name,
                ts_ns=ts_ns,
                dur_ns=dur_ns,
                tid=tid,
                args=args,
                pid=pid,
                trace_id=span_trace,
                span_id=span_id,
                parent_id=parent_id,
            )
        )
    if offset + _U32.size > len(payload):
        raise FrameError("truncated telemetry counter section")
    (n_counters,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    counters: Dict[str, int] = {}
    for _ in range(n_counters):
        name, offset = _unpack_name(payload, offset)
        if offset + _I64.size > len(payload):
            raise FrameError("truncated telemetry counter")
        (counters[name],) = _I64.unpack_from(payload, offset)
        offset += _I64.size
    if offset + _U32.size > len(payload):
        raise FrameError("truncated telemetry gauge section")
    (n_gauges,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    gauges: Dict[str, float] = {}
    for _ in range(n_gauges):
        name, offset = _unpack_name(payload, offset)
        if offset + _F64.size > len(payload):
            raise FrameError("truncated telemetry gauge")
        (gauges[name],) = _F64.unpack_from(payload, offset)
        offset += _F64.size
    if offset + _U32.size > len(payload):
        raise FrameError("truncated telemetry histogram section")
    (n_histograms,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    histograms: Dict[str, HistogramDelta] = {}
    for _ in range(n_histograms):
        name, offset = _unpack_name(payload, offset)
        if offset + _TELE_HIST.size > len(payload):
            raise FrameError("truncated telemetry histogram header")
        count, total, min_value, max_value, n_buckets = _TELE_HIST.unpack_from(
            payload, offset
        )
        offset += _TELE_HIST.size
        if offset + n_buckets * _TELE_BUCKET.size > len(payload):
            raise FrameError("truncated telemetry histogram buckets")
        buckets: List[Tuple[int, int]] = []
        for _b in range(n_buckets):
            index, added = _TELE_BUCKET.unpack_from(payload, offset)
            offset += _TELE_BUCKET.size
            buckets.append((index, added))
        histograms[name] = HistogramDelta(
            count=count,
            total=total,
            min_value=min_value,
            max_value=max_value,
            buckets=buckets,
        )
    if offset != len(payload):
        raise FrameError(
            f"{len(payload) - offset} trailing byte(s) after telemetry sections"
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


def decode_frame(payload: bytes) -> Tuple[int, Any]:
    """Validate the frame header and decode the body.

    Returns ``(frame_type, body)`` where the body is: a
    :class:`DecodedBatch` for BATCH, ``(elapsed, results)`` for RESULT, a
    durability :data:`~repro.durability.codec.DecodedRecord` for CONTROL,
    a :class:`TelemetryPayload` for TELEMETRY, the message string for
    ERROR, and ``None`` for ACK/SHUTDOWN.
    """
    if len(payload) < _HDR.size:
        raise FrameError(f"frame of {len(payload)} byte(s) has no header")
    frame_type, version = _HDR.unpack_from(payload, 0)
    if version != FRAME_VERSION:
        raise FrameError(
            f"frame version {version} unsupported (expected {FRAME_VERSION})"
        )
    if frame_type == FRAME_BATCH:
        return frame_type, decode_batch_frame(payload)
    if frame_type == FRAME_RESULT:
        return frame_type, decode_result_frame(payload)
    if frame_type == FRAME_CONTROL:
        return frame_type, decode_record(payload[_HDR.size :])
    if frame_type in (FRAME_ACK, FRAME_SHUTDOWN):
        if len(payload) != _HDR.size:
            raise FrameError(f"frame type {frame_type} carries no body")
        return frame_type, None
    if frame_type == FRAME_ERROR:
        return frame_type, payload[_HDR.size :].decode("utf-8", errors="replace")
    if frame_type == FRAME_TELEMETRY:
        return frame_type, decode_telemetry_frame(payload)
    raise FrameError(f"unknown frame type {frame_type}")
