"""Lightweight tracing spans for the runtime's phase breakdown.

The runtime wants per-phase timing (``batch`` -> ``wal.sync`` ->
``shard.apply``) without paying for it when nobody is looking, so the API
is a two-implementation protocol:

* :data:`NULL_TRACER` — the disabled default.  ``span()`` returns one
  shared, stateless context manager; entering it allocates nothing and
  reads no clock, so instrumented code costs a method call and a ``with``
  block when tracing is off.
* :class:`RingTracer` — the enabled path.  Each closed span becomes one
  immutable :class:`SpanRecord` in a fixed-capacity ring buffer (bounded
  memory by construction: once full, the oldest record is overwritten and
  counted as dropped).  Timing uses ``time.perf_counter_ns`` — a
  *monotonic* clock, which the RA001 determinism rule permits in this
  package precisely because span durations never feed replay or recovery
  decisions (see ``repro.analysis.project.MONOTONIC_CLOCK_SCOPE``).

Single writer, not thread-safe: a :class:`RingTracer` belongs to the one
thread that runs the data path, like the metrics registry it sits beside.
A reader on another thread gets a *published copy* —
:meth:`RingTracer.export_copy`, frozen :class:`SpanRecord` s plus copied
lane-name dict, which ``serve`` hands to
:meth:`repro.obs.export.MetricsServer.publish` — and renders it with
:func:`chrome_trace_of_export` on its own thread.  ``threading.get_ident()``
still stamps each span's ``tid``: it names the trace lane.

Export is Chrome ``trace_event`` JSON ("X" complete events, microsecond
timestamps) — load the file at ``chrome://tracing`` or https://ui.perfetto.dev.

**Distributed traces** (PR 10): every :class:`RingTracer` carries a
``trace_id`` (derived from the monotonic clock and the pid — no RNG, so
the RA001 determinism plane stays clean) and allocates a ``span_id`` per
opened span.  A process boundary propagates the pair explicitly: the
shm-transport pipeline stamps each BATCH frame with its trace id and the
open ``transport.roundtrip`` span id, the worker's tracer *adopts* the
trace id and stamps the remote id as ``parent_id`` on every span it
records, and the worker ships its closed spans back as TELEMETRY frames.
:meth:`RingTracer.record` merges such foreign records — each carries its
own ``pid`` — and the Chrome export renders one lane per process via
``M`` (``process_name``) metadata events, so a single
trace.json shows the parent and every worker on a shared clock
(``perf_counter_ns`` reads CLOCK_MONOTONIC, whose origin is per-host,
not per-process, on every platform CPython supports).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import (
    Any,
    ContextManager,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "RingTracer",
    "TraceExport",
    "NULL_TRACER",
    "new_trace_id",
    "to_chrome_trace",
    "chrome_trace_of_export",
    "write_chrome_trace",
]

DEFAULT_CAPACITY = 65_536


def new_trace_id() -> int:
    """A fresh nonzero 63-bit trace id.

    Seeded from the monotonic clock and the pid rather than an RNG: unique
    enough to tell two runs (or two tracers) apart, and RA001-clean — the
    obs package sits on the replay-equivalence plane where entropy sources
    are banned but monotonic clock reads are carved out.
    """
    raw = (time.monotonic_ns() ^ (os.getpid() << 47)) & 0x7FFF_FFFF_FFFF_FFFF
    return raw or 1


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One closed span: name, start, duration, recording thread, tags.

    ``ts_ns`` is a ``perf_counter_ns`` reading — monotonic with an
    arbitrary origin, so only differences between records are meaningful
    (exactly what a trace viewer needs).

    The distributed-trace fields default to "not propagated": ``pid`` 0
    means "the exporting process" (the exporter substitutes its default
    lane), and a zero ``trace_id``/``span_id``/``parent_id`` is simply
    omitted from the exported event's args.
    """

    name: str
    ts_ns: int
    dur_ns: int
    tid: int
    args: Optional[Dict[str, Any]] = field(default=None)
    pid: int = 0
    trace_id: int = 0
    span_id: int = 0
    parent_id: int = 0

    @property
    def end_ns(self) -> int:
        return self.ts_ns + self.dur_ns


class Tracer(Protocol):
    """What instrumented code needs: a context manager per named phase."""

    def span(self, name: str, **args: Any) -> ContextManager[Any]: ...


class _NullSpan:
    """The shared do-nothing span (no clock reads, no allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every ``span()`` is the same inert object."""

    __slots__ = ()

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    """A live span: reads the clock on enter/exit, records on exit.

    Spans also work as *manual* start/stop pairs (``__enter__`` /
    ``__exit__(None, None, None)``) for callers whose start and end sites
    are separate callbacks — the partition-rebuild listener uses this.
    """

    __slots__ = ("_tracer", "_name", "_args", "_start_ns", "span_id")

    def __init__(
        self, tracer: "RingTracer", name: str, args: Optional[Dict[str, Any]]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start_ns = 0
        #: Allocated on ``__enter__`` — callers may read it while the span
        #: is open to propagate it across a process boundary (the shm
        #: transport stamps it on BATCH frames as the remote parent).
        self.span_id = 0

    def __enter__(self) -> "_Span":
        self._start_ns = time.perf_counter_ns()
        self.span_id = self._tracer._next_span_id()
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        end_ns = time.perf_counter_ns()
        self._tracer._record_closed(
            name=self._name,
            ts_ns=self._start_ns,
            dur_ns=end_ns - self._start_ns,
            tid=threading.get_ident(),
            args=self._args,
            span_id=self.span_id,
        )


class TraceExport(NamedTuple):
    """Everything a Chrome trace export reads from a :class:`RingTracer`,
    copied: the retained spans oldest-first, the spans lost to ring
    overflow, the process lane names, and the trace id.  It
    shares nothing with the tracer, so another thread may render it."""

    records: List[SpanRecord]
    dropped: int
    process_names: Dict[int, str]
    trace_id: int


class RingTracer:
    """Ring buffer of closed spans with bounded memory (single writer).

    ``capacity`` bounds resident records; overflow overwrites the oldest
    span rather than blocking or growing, and the overwritten count is
    reported as :attr:`dropped` so exported traces are honest about
    truncation.
    """

    __slots__ = (
        "capacity",
        "pid",
        "_spans",
        "_next",
        "_trace_id",
        "_remote_parent",
        "_span_seq",
        "_process_names",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.pid = os.getpid()
        self._spans: List[Optional[SpanRecord]] = [None] * capacity
        self._next = 0  # total spans ever recorded
        self._trace_id = new_trace_id()
        self._remote_parent = 0  # cross-process parent span id
        self._span_seq = 0  # span ids allocated so far
        self._process_names: Dict[int, str] = {}

    def span(self, name: str, **args: Any) -> _Span:
        return _Span(self, name, args or None)

    @property
    def trace_id(self) -> int:
        return self._trace_id

    def adopt_trace_id(self, trace_id: int) -> None:
        """Join a trace started elsewhere (a worker adopting the parent's
        id from an incoming BATCH frame).  Zero is ignored — untraced
        callers must not reset an adopted id."""
        if trace_id:
            self._trace_id = trace_id

    def set_remote_parent(self, parent_span_id: int) -> None:
        """Parent span id for subsequently *opened* spans whose caller is
        in another process.  Stamped on every recorded span until changed;
        zero clears it."""
        self._remote_parent = parent_span_id

    def set_process_name(self, pid: int, name: str) -> None:
        """Label a process lane in the exported trace (``M`` metadata)."""
        self._process_names[pid] = name

    def _next_span_id(self) -> int:
        """Span ids unique across cooperating processes: pid in the high
        bits, a per-tracer counter in the low 24 (wrap is harmless — by
        then the early spans have long been overwritten in the ring)."""
        self._span_seq += 1
        return (self.pid << 24) | (self._span_seq & 0xFF_FFFF)

    def _record_closed(
        self,
        *,
        name: str,
        ts_ns: int,
        dur_ns: int,
        tid: int,
        args: Optional[Dict[str, Any]],
        span_id: int,
    ) -> None:
        """Close a locally opened span: stamp identity fields and store."""
        self.record(
            SpanRecord(
                name=name,
                ts_ns=ts_ns,
                dur_ns=dur_ns,
                tid=tid,
                args=args,
                pid=self.pid,
                trace_id=self._trace_id,
                span_id=span_id,
                parent_id=self._remote_parent,
            )
        )

    def record(self, record: SpanRecord) -> None:
        """Store a built record: a closed local span, or a worker span
        shipped over the telemetry frame, as-is."""
        self._spans[self._next % self.capacity] = record
        self._next += 1

    def since(self, seen: int) -> Tuple[List[SpanRecord], int]:
        """Records closed after the first ``seen`` ever recorded, plus the
        new total — the incremental read the worker-side telemetry
        collector uses.  Records that overflowed the ring before being
        read are silently absent (the ``dropped`` counter owns honesty
        about that)."""
        records, total = self.snapshot(), self._next
        fresh = total - seen
        if fresh <= 0:
            return [], total
        return records[-fresh:] if fresh < len(records) else records, total

    @property
    def recorded(self) -> int:
        """Total spans ever closed (including any since overwritten)."""
        return self._next

    @property
    def dropped(self) -> int:
        """Spans lost to ring overflow."""
        return max(0, self._next - self.capacity)

    def snapshot(self) -> List[SpanRecord]:
        """The retained spans, oldest first (a copy)."""
        total = self._next
        if total <= self.capacity:
            head = self._spans[:total]
        else:
            start = total % self.capacity
            head = self._spans[start:] + self._spans[:start]
        return [record for record in head if record is not None]

    def export_copy(self) -> TraceExport:
        """Everything an exporter reads, as a copy another thread may
        render (see :func:`chrome_trace_of_export`)."""
        return TraceExport(
            records=self.snapshot(),
            dropped=self.dropped,
            process_names=dict(self._process_names),
            trace_id=self._trace_id,
        )

    def to_chrome_trace(self, *, pid: int = 1) -> Dict[str, Any]:
        return chrome_trace_of_export(self.export_copy(), pid=pid)


def to_chrome_trace(
    spans: Sequence[SpanRecord],
    *,
    pid: int = 1,
    process_names: Optional[Dict[int, str]] = None,
) -> Dict[str, Any]:
    """Render spans as a Chrome ``trace_event`` document.

    Each span becomes one "X" (complete) event; timestamps and durations
    are microseconds, rebased so the earliest span starts at 0.  Records
    with ``pid == 0`` fall back to the ``pid`` argument, so single-process
    traces keep their historical shape.  Each ``process_names`` entry
    becomes an ``M`` (metadata) event, which trace viewers use to label
    the process's lane.
    """
    base_ns = min((record.ts_ns for record in spans), default=0)
    events: List[Dict[str, Any]] = []
    for record_pid, name in sorted((process_names or {}).items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": record_pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    for record in spans:
        event: Dict[str, Any] = {
            "name": record.name,
            "ph": "X",
            "ts": (record.ts_ns - base_ns) / 1_000.0,
            "dur": record.dur_ns / 1_000.0,
            "pid": record.pid or pid,
            "tid": record.tid,
        }
        args: Dict[str, Any] = dict(record.args) if record.args else {}
        if record.trace_id:
            args["trace_id"] = record.trace_id
        if record.span_id:
            args["span_id"] = record.span_id
        if record.parent_id:
            args["parent_id"] = record.parent_id
        if args:
            event["args"] = args
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_of_export(export: TraceExport, *, pid: int = 1) -> Dict[str, Any]:
    """:func:`to_chrome_trace` of a :class:`TraceExport`, plus an
    ``otherData`` block naming the dropped-span count and the trace id."""
    trace = to_chrome_trace(
        export.records,
        pid=pid,
        process_names=export.process_names,
    )
    trace["otherData"] = {
        "dropped_spans": export.dropped,
        "trace_id": export.trace_id,
    }
    return trace


def write_chrome_trace(
    path: str, source: "RingTracer | Sequence[SpanRecord]", *, pid: int = 1
) -> int:
    """Write a Chrome trace JSON file; returns the number of events."""
    if isinstance(source, RingTracer):
        trace = source.to_chrome_trace(pid=pid)
    else:
        trace = to_chrome_trace(source, pid=pid)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return len(trace["traceEvents"])
