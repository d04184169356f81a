"""The persistent shard-worker loop for ``mode="process-shm"``.

One worker process owns one :class:`~repro.runtime.sharding.ShardGroup`
— the same table-set owner the inline backend builds, its one shard a
C-slice of the select plane (a worker exists only at K ≥ 2) — and a pair
of rings: it blocks on the *request* ring, applies whatever arrives,
and answers on the *response* ring.  The protocol is strictly
request/response — the pipeline never has more than one frame in flight
per shard — so worker-side ring sends can use a short deadline: a full
response ring means the pipeline stopped consuming, and dying loudly beats
blocking forever.

A request is a BATCH frame (or SHUTDOWN).  Subscription changes ride
inside it as entries in stream order, so the worker runs exactly the code
the inline backend runs: :meth:`ShardGroup.apply_batch` installs a
subscribe whose placement names this shard, and resolves an unsubscribe,
which crosses as its qid alone, against the queries the group holds.

Observability: the worker runs its *own*
:class:`~repro.obs.tracing.RingTracer` and
:class:`~repro.runtime.metrics.MetricsRegistry` — the shard wires its
hotspot telemetry and fastpath spans into them exactly as the inline
backend would, and every metric in that registry is already named for its
shard (``shard/<i>/...`` or ``obs/shard/<i>/...``), so the parent folds it
under the same name.  Each BATCH frame carries the parent's trace id and the
open roundtrip span id; the worker adopts both so its spans join the
parent's trace, and a zero trace id — an untraced parent, which would
drop the spans on arrival — switches span recording off until a traced
BATCH comes (:class:`_BatchTracer`), so tracing costs a worker nothing
unless someone reads it.  Metrics are always kept: the worker measures
per-entry ingest-to-apply latency from the batch's monotonic ingest
timestamps (CLOCK_MONOTONIC is shared across processes on one host) and
folds them into ``shard/<i>/worker/e2e/ingest_to_apply_us`` once per batch
its shard probed — a batch met by a shard that holds no query is not
timed.  When
a BATCH requests telemetry (flag bit0), the worker follows its
response with one TELEMETRY frame — deltas collected by
:class:`~repro.obs.remote.TelemetryCollector` — preserving the
one-request/one-logical-response protocol (the pipeline reads RESULT
then TELEMETRY).  The telemetry follow-up is sent even when the batch
itself failed, so both sides stay frame-aligned.

Exceptions inside a request are reported back as ERROR frames (the
pipeline re-raises them as :class:`TransportError`); the loop itself only
exits on a SHUTDOWN frame or an unrecoverable transport failure.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Any, Optional, Tuple

if TYPE_CHECKING:
    from multiprocessing.synchronize import Semaphore

from repro.obs.remote import TelemetryCollector
from repro.obs.tracing import NULL_TRACER, RingTracer
from repro.runtime.metrics import Histogram, MetricsRegistry, histogram_delta
from repro.runtime.sharding import ShardGroup
from repro.runtime.transport import frames
from repro.runtime.transport.shm import ShmRing, TransportError

__all__ = ["shard_worker_main"]

#: Response-ring send deadline (see module docstring).
_RESPONSE_TIMEOUT = 30.0

#: Worker span rings are smaller than the parent default — only the spans
#: since the last telemetry ship need to survive, and telemetry rides on
#: the batch cadence.
_WORKER_TRACE_CAPACITY = 16_384


class _BatchTracer:
    """The tracer a worker's shards hold: ``span`` records into ``ring``
    while the last BATCH carried a trace id and is inert otherwise."""

    __slots__ = ("ring", "span")

    def __init__(self, ring: RingTracer) -> None:
        self.ring = ring
        self.span = NULL_TRACER.span

    def join(self, batch: frames.DecodedBatch) -> None:
        if batch.trace_id:
            self.ring.adopt_trace_id(batch.trace_id)
            self.ring.set_remote_parent(batch.parent_span_id)
            self.span = self.ring.span
        else:
            self.span = NULL_TRACER.span


def _apply_batch(
    group: ShardGroup,
    batch: frames.DecodedBatch,
    tracer: _BatchTracer,
    e2e: Histogram,
) -> Tuple[float, frames.SeqResults]:
    tracer.join(batch)
    start_ns = time.perf_counter_ns()
    with tracer.span("worker.batch", shard=group.shard.index, events=len(batch.entries)):
        applied = group.apply_batch(batch.entries)
        results: frames.SeqResults = [
            (seq, {query.qid: rows for query, rows in deltas.items()})
            for seq, deltas in (applied[1] if applied is not None else [])
        ]
    end_ns = time.perf_counter_ns()
    if applied is None:
        # NaN elapsed tells the parent the shard held no query: it probed
        # nothing, so no entry is timed.
        return math.nan, results
    # One fold per batch; a query entry (stamp 0) is not timed.
    latencies = [(end_ns - ingest) / 1_000.0 for ingest in batch.ingest_ns if ingest > 0]
    if latencies:
        e2e.merge_delta(**histogram_delta(latencies))
    return (end_ns - start_ns) / 1e9, results


def _handle(
    group: ShardGroup,
    frame_type: int,
    body: Any,
    tracer: _BatchTracer,
    e2e: Histogram,
) -> bytes:
    if frame_type == frames.FRAME_BATCH:
        elapsed, results = _apply_batch(group, body, tracer, e2e)
        return frames.encode_result_frame(elapsed, results)
    raise TransportError(f"unexpected request frame type {frame_type}")


def shard_worker_main(
    index: int,
    alpha: Optional[float],
    epsilon: float,
    request_ring: str,
    response_ring: str,
    request_doorbell: Optional["Semaphore"] = None,
    response_doorbell: Optional["Semaphore"] = None,
) -> None:
    """Drain ``request_ring`` into a freshly built shard until SHUTDOWN.

    The doorbell semaphores (created by the pipeline, inherited through
    the :class:`~multiprocessing.Process` arguments) give both sides
    blocking wake-ups instead of sleep-polling — see
    :class:`~repro.runtime.transport.shm.ShmRing`.
    """
    requests = ShmRing.attach(request_ring, doorbell=request_doorbell)
    responses = ShmRing.attach(response_ring, doorbell=response_doorbell)
    registry = MetricsRegistry()
    tracer = _BatchTracer(RingTracer(capacity=_WORKER_TRACE_CAPACITY))
    group = ShardGroup(index, sliced=True, alpha=alpha, epsilon=epsilon,
                       metrics=registry, tracer=tracer)
    collector = TelemetryCollector(index, registry, tracer.ring)
    e2e = registry.histogram(f"shard/{index}/worker/e2e/ingest_to_apply_us")
    try:
        while True:
            payload = requests.recv(timeout=None)
            assert payload is not None  # timeout=None never yields None
            try:
                frame_type, body = frames.decode_frame(payload)
            except frames.FrameError as exc:
                # The protocol is strictly one frame in flight, so a
                # malformed request still gets its response — the pipeline
                # re-raises it; only SHUTDOWN ends the loop.
                registry.counter(f"shard/{index}/transport/frame_errors").inc()
                responses.send(
                    frames.encode_error_frame(
                        f"shard {index} worker: bad request frame: {exc}"
                    ),
                    timeout=_RESPONSE_TIMEOUT,
                )
                continue
            if frame_type == frames.FRAME_SHUTDOWN:
                break
            try:
                response = _handle(group, frame_type, body, tracer, e2e)
            except Exception as exc:  # surfaced to the pipeline, not lost
                response = frames.encode_error_frame(
                    f"shard {index} worker: {type(exc).__name__}: {exc}"
                )
            responses.send(response, timeout=_RESPONSE_TIMEOUT)
            # A telemetry-flagged BATCH gets its follow-up frame even when
            # the batch errored — the parent reads a fixed number of
            # responses per request, so skipping it would desynchronize
            # the rings.
            if (
                frame_type == frames.FRAME_BATCH
                and isinstance(body, frames.DecodedBatch)
                and body.want_telemetry
            ):
                group.shard.sample_telemetry()  # refresh headroom gauges
                responses.send(
                    frames.encode_telemetry_frame(collector.collect()),
                    timeout=_RESPONSE_TIMEOUT,
                )
    finally:
        requests.close()
        responses.close()
