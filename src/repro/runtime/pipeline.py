"""The event-processing pipeline: ingress, micro-batches, workers.

``EventPipeline`` is the one host of :class:`~repro.runtime.sharding.Shard`\\ s;
it stacks the runtime layers on top of them:

1. **ingress** — submitted events queue in a
   :class:`~repro.runtime.batching.MicroBatcher`, subscription changes
   (:class:`~repro.engine.events.QueryEvent`\\ s) among the
   :class:`~repro.engine.events.DataEvent`\\ s in stream order.  The
   queue is bounded by ``batch_size``, because the submit that fills it
   flushes it; nothing is ever dropped or refused, and pacing a slow
   consumer is the caller's job.
2. **batching** — a batch flushes when ``batch_size`` entries are pending.
   Every submitted event is applied; an insert and a delete of the same row in
   one batch are answered exactly as the per-event reference answers them.
3. **execution** — there is one shard per process, each holding a
   partition of the queries over its process's one table set
   (:class:`~repro.runtime.sharding.ShardGroup`), and every data event
   reaches every shard, so a flush routes each event once
   (:meth:`~repro.runtime.sharding.ShardRouter.route_event` → its
   select-plane owner) and hands its shards one ``(seq, event, owner)``
   list, never a copy per shard.  ``mode="inline"`` (the default) steps
   its one shard, which holds every query, through the batch on the
   caller's thread: deterministic and zero overhead.  A plane probes the
   full tables whatever its share of the queries, so more shards in one
   process would only repeat the fixed cost of a probe, and inline
   ``num_shards`` is ignored.
   ``mode="process-shm"`` runs ``num_shards`` processes: it applies shard
   0 in this process and pins each of shards 1…K−1 to a persistent worker
   process behind a pair of shared-memory rings
   (:mod:`repro.runtime.transport`) — real parallelism on CPython, with
   batches and deltas crossing the boundary as columnar frames; a batch
   is encoded once, the same frame goes to every worker, and the parent
   applies shard 0 while they run.
4. **merge** — per-shard deltas are merged by sequence number into one
   per-event result dict whose lists equal the per-event reference's,
   order included (:func:`~repro.runtime.sharding.merge_deltas`), then
   dispatched to subscription callbacks in arrival order.

A subscription change is not a barrier: it rides the batch as an entry,
and each shard group installs it at its position, probes against the
superset of subscriptions and strikes what an event could not yet, or no
longer, see (:meth:`~repro.runtime.sharding.ShardGroup.apply_batch`) — the
deltas are those of the exact stream order an unsharded system would see.
The maps from qid to query and callback outlive an unsubscribe until the
batch that applies it; the one barrier left is a subscribe whose qid still
has an unsubscribe pending, which flushes first.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from typing import (
    TYPE_CHECKING, Any, Callable, Collection, Dict, Iterable, List, Optional, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover — type only: runtime never imports durability
    from repro.durability.manager import DurabilityManager

from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.runtime.transport import frames as _frames
from repro.runtime.transport.shm import RingTimeoutError, ShmRing, TransportError
from repro.runtime.transport.worker import shard_worker_main
from repro.obs.hotspot_telemetry import HeadroomSample
from repro.obs.remote import merge_telemetry
from repro.obs.tracing import NULL_TRACER, RingTracer, Tracer
from repro.runtime.batching import BatchEntry, MicroBatcher, pauses_collector
from repro.runtime.metrics import MetricsRegistry, histogram_delta
from repro.runtime.sharding import (
    Delta,
    ResultCallback,
    Shard,
    ShardBatchResults,
    ShardEntry,
    ShardGroup,
    ShardRouter,
    scaled_alpha,
    merge_deltas,
)


# -- worker lanes (process-shm) --------------------------------------------

#: Bytes of each shared-memory ring, one per direction per worker.
RING_CAPACITY = 4 << 20
#: Seconds a send may block, or a response take, before the round fails.
RESPONSE_TIMEOUT = 60.0
#: Every this-many-th ``process-shm`` batch is a telemetry round.
TELEMETRY_EVERY = 16


class _ShmWorkers:
    """Shards 1…K−1 of a ``process-shm`` pipeline (K ≥ 2), each in a
    persistent worker process behind a request ring and a response ring
    (:mod:`repro.runtime.transport`).  The pipeline applies shard 0
    itself; each process holds one table set, with every row.

    Batches cross the boundary as columnar frames — subscription changes
    inside them, as entries in stream order — and results come back as row
    tables plus (seq, qid, sign, row-ref) tuples resolved to the caller's
    query objects.  A batch is encoded once and sent to every worker
    (:meth:`send`); the pipeline applies shard 0 while they run and only
    then reads their responses (:meth:`collect`, one frame in flight per
    worker).  ``close()`` is idempotent and unlinks every segment even
    after a worker crash (shutdown frame → join with timeout → kill →
    unlink).

    Telemetry: a BATCH with the telemetry flag set (every
    :data:`TELEMETRY_EVERY`-th round) makes each worker follow its RESULT
    with one TELEMETRY frame — metric deltas, which merge into the parent
    registry under the ``shard/<N>/`` names the worker gave them, plus,
    when the parent tracer records (the BATCH trace id is nonzero — a
    worker records no spans otherwise), the spans since the last ship,
    which merge into one unified trace with per-process lanes.
    ``drain_telemetry()`` forces a ship via an empty flagged batch (used by
    the reporting interval and on close, so the final stats include the
    workers' last increments).
    """

    def __init__(
        self,
        num_shards: int,
        alpha: Optional[float],
        epsilon: float,
        resolve_query: Callable[[int], Any],
        metrics: MetricsRegistry,
        tracer: Tracer,
    ):
        self._resolve = resolve_query
        self.metrics = metrics
        counter, gauge, histogram = metrics.counter, metrics.gauge, metrics.histogram
        self._encode_us = histogram("transport/encode_us")
        self._decode_us = histogram("transport/decode_us")
        self._bytes_in = counter("transport/bytes_in")
        self._bytes_out = counter("transport/bytes_out")
        self._ring_timeouts = counter("transport/ring_timeouts")
        remote = range(1, num_shards)
        self._request_bytes = {
            index: gauge(f"transport/ring/{index}/request_bytes") for index in remote
        }
        self._response_bytes = {
            index: gauge(f"transport/ring/{index}/response_bytes") for index in remote
        }
        self.tracer = tracer
        self._closed = False
        self._requests: Dict[int, ShmRing] = {}
        self._responses: Dict[int, ShmRing] = {}
        self._processes: Dict[int, multiprocessing.process.BaseProcess] = {}
        ctx = multiprocessing.get_context()
        try:
            for index in remote:
                request_bell = ctx.Semaphore(0)
                response_bell = ctx.Semaphore(0)
                self._requests[index] = ShmRing.create(RING_CAPACITY, doorbell=request_bell)
                self._responses[index] = ShmRing.create(RING_CAPACITY, doorbell=response_bell)
                worker = ctx.Process(
                    target=shard_worker_main,
                    args=(
                        index,
                        alpha,
                        epsilon,
                        self._requests[index].name,
                        self._responses[index].name,
                        request_bell,
                        response_bell,
                    ),
                    name=f"repro-shm-shard-{index}",
                    daemon=True,
                )
                worker.start()
                self._processes[index] = worker
        except BaseException:
            self.close()
            raise

    # -- framed request/response ---------------------------------------------

    def _await_raw(self, index: int) -> bytes:
        """Block for one response frame, failing fast if the worker died."""
        ring = self._responses[index]
        retries = ring.crc_retries
        timeout = RESPONSE_TIMEOUT
        deadline = time.monotonic() + timeout
        try:
            while True:
                payload = ring.recv(timeout=0.05)
                if payload is not None:
                    return payload
                if not self._processes[index].is_alive():
                    raise TransportError(
                        f"shard {index} worker exited "
                        f"(exitcode {self._processes[index].exitcode}) mid-request"
                    )
                if time.monotonic() >= deadline:
                    self._ring_timeouts.inc()
                    raise RingTimeoutError(
                        f"no response from shard {index} within {timeout:.1f}s"
                    )
        finally:
            if ring.crc_retries != retries:
                self.metrics.counter("transport/crc_retries").inc(
                    ring.crc_retries - retries
                )

    def _decode(self, index: int, raw: bytes, expected: int) -> Any:
        """The body of a response frame of type ``expected``.  A response
        that is not a valid frame, or is the worker's ERROR report, counts
        in ``transport/frame_errors`` on its way up."""
        try:
            frame_type, body = _frames.decode_frame(raw)
            if frame_type == _frames.FRAME_ERROR:
                raise TransportError(str(body))
        except TransportError:  # FrameError is one
            self.metrics.counter("transport/frame_errors").inc()
            raise
        if frame_type != expected:
            raise TransportError(
                f"shard {index}: expected frame type {expected}, got {frame_type}"
            )
        return body

    def _send(self, index: int, payload: bytes) -> None:
        try:
            self._requests[index].send(payload, timeout=RESPONSE_TIMEOUT)
        except RingTimeoutError:
            self._ring_timeouts.inc()
            raise
        self._bytes_out.inc(len(payload))
        self._request_bytes[index].set(self._requests[index].occupancy())

    def _merge_telemetry_frame(self, index: int) -> None:
        """Read one TELEMETRY frame from a shard and fold it in."""
        merge_telemetry(
            self.metrics,
            self.tracer if isinstance(self.tracer, RingTracer) else None,
            self._decode(index, self._await_raw(index), _frames.FRAME_TELEMETRY),
        )

    def _collect(
        self, index: int, want_telemetry: bool
    ) -> Tuple[float, List[Tuple[int, Delta]]]:
        """One worker's RESULT, resolved to the caller's query objects.  A
        telemetry follow-up is read and folded in before anything raises:
        the worker sends it after a failed batch too."""
        raw = self._await_raw(index)
        self._bytes_in.inc(len(raw))
        self._response_bytes[index].set(self._responses[index].occupancy())
        try:
            start = time.perf_counter()
            elapsed, results = self._decode(index, raw, _frames.FRAME_RESULT)
            self._decode_us.observe((time.perf_counter() - start) * 1e6)
        finally:
            if want_telemetry:
                self._merge_telemetry_frame(index)
        resolve = self._resolve
        return elapsed, [
            (seq, {resolve(qid): rows for qid, rows in deltas.items()})
            for seq, deltas in results
        ]

    # -- one round -------------------------------------------------------------

    def send(
        self,
        entries: List[ShardEntry],
        ingest_ns: List[int],
        want_telemetry: bool,
        parent_span_id: int = 0,
        lanes: Optional[Collection[int]] = None,
    ) -> None:
        """Encode one BATCH frame and send it to every worker (or to
        ``lanes``): every worker reads the same batch."""
        start = time.perf_counter()
        payload = _frames.encode_batch_frame(
            entries,
            ingest_ns=ingest_ns,
            trace_id=getattr(self.tracer, "trace_id", 0),
            parent_span_id=parent_span_id,
            want_telemetry=want_telemetry,
        )
        self._encode_us.observe((time.perf_counter() - start) * 1e6)
        for index in self._processes if lanes is None else lanes:
            self._send(index, payload)

    def collect(
        self,
        out: ShardBatchResults,
        want_telemetry: bool,
        lanes: Optional[Collection[int]] = None,
    ) -> Optional[TransportError]:
        """Read the response of every worker (or of ``lanes``) into
        ``out``, but for a shard that held no query.  Every one is read
        before the first failure is returned, so no frame of this round is
        left in a ring for the next to misread."""
        failure: Optional[TransportError] = None
        for index in self._processes if lanes is None else lanes:
            try:
                elapsed, results = self._collect(index, want_telemetry)
                if not math.isnan(elapsed):  # NaN: the shard held no query
                    out[index] = (elapsed, results)
            except TransportError as exc:
                failure = failure or exc
        return failure

    def drain_telemetry(self) -> None:
        """Pull every live worker's pending telemetry now, with an empty
        telemetry-flagged BATCH (harmless: zero entries apply nothing)."""
        if self._closed:
            return
        live = [index for index, worker in self._processes.items() if worker.is_alive()]
        if not live:
            return
        self.send([], [], True, lanes=live)
        failure = self.collect({}, True, lanes=live)
        if failure is not None:
            raise failure

    def close(self) -> None:
        """Stop workers and unlink every segment.  Idempotent; tolerates
        workers that already crashed or never started."""
        if self._closed:
            return
        try:
            # Final telemetry merge so closing stats include the workers'
            # last increments; best-effort — a crashed worker already lost
            # its registry.
            self.drain_telemetry()
        except TransportError:
            pass
        self._closed = True
        shutdown = _frames.encode_shutdown_frame()
        workers = self._processes
        for index, worker in workers.items():
            if worker.is_alive():
                try:
                    self._requests[index].send(shutdown, timeout=1.0)
                except TransportError:
                    pass
        for worker in workers.values():
            worker.join(timeout=5.0)
        for worker in workers.values():
            if worker.is_alive():  # pragma: no cover — crash-path hammer
                worker.kill()
                worker.join(timeout=5.0)
        for ring in (*self._requests.values(), *self._responses.values()):
            ring.close()
            ring.unlink()


# -- the pipeline ------------------------------------------------------------


class EventPipeline:
    """Sharded, micro-batched event processing.

    Parameters mirror the knobs documented in ``docs/RUNTIME.md``;
    ``num_shards`` is the process count of ``process-shm`` and ignored
    inline, which builds one shard.  Results are delivered through
    per-subscription callbacks (``subscribe``) and/or returned by
    ``flush``/``run`` as ``(seq, event, deltas)`` triples in arrival order.
    """

    def __init__(
        self,
        *,
        num_shards: int = 4,
        alpha: Optional[float] = 0.01,
        epsilon: float = 1.0,
        batch_size: int = 32,
        mode: str = "inline",
        metrics: Optional[MetricsRegistry] = None,
        durability: Optional["DurabilityManager"] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        if mode not in ("inline", "process-shm"):
            raise ValueError(f"unknown mode {mode!r} (inline|process-shm)")
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        # A plane probes the process's full tables whatever its share of the
        # queries, so there is one shard per process: one inline.
        shards = num_shards if mode == "process-shm" else 1
        self.router = ShardRouter(shards)
        self.batch_size = batch_size
        self.mode = mode
        self.alpha = alpha
        self.epsilon = epsilon
        self.durability = durability
        self._batcher = MicroBatcher(max_batch=batch_size)
        self._queries: Dict[int, Any] = {}
        self._placements: Dict[int, List[int]] = {}
        self._callbacks: Dict[int, ResultCallback] = {}
        self._seq = 0
        # Queue depth after each submitted event since the last fold (per
        # flush); at most ``batch_size`` ints, see ``submit``.
        self._depths: List[int] = []
        self._sink: Optional[List[Tuple[int, DataEvent, Delta]]] = None
        # Resolved once: the data path never looks a metric up by name.
        counter, histogram = self.metrics.counter, self.metrics.histogram
        self._query_events = counter("pipeline/query_events")
        self._events_submitted = counter("pipeline/events_submitted")
        self._results_produced = counter("pipeline/results_produced")
        self._events_applied = counter("pipeline/events_applied")
        self._batches = counter("pipeline/batches")
        self._queue_depth = histogram("pipeline/queue_depth")
        self._e2e_us = histogram("pipeline/e2e_us")
        self._batch_size_hist = histogram("pipeline/batch_size")
        self._shard_metrics = [
            (histogram(f"shard/{i}/batch_us"), counter(f"shard/{i}/events"))
            for i in range(shards)
        ]
        per_shard_alpha = scaled_alpha(alpha, shards)
        # process-shm: this process applies shard 0 and K − 1 workers the
        # rest.  Their spans and hotspot telemetry merge back over
        # TELEMETRY frames; shard 0's spans, the transport metrics and the
        # transport.roundtrip span are recorded here.
        if mode == "process-shm" and isinstance(tracer, RingTracer):
            tracer.set_process_name(tracer.pid, "pipeline (parent)")
        self._group = ShardGroup(
            0, sliced=shards > 1, alpha=per_shard_alpha,
            epsilon=epsilon, metrics=self.metrics, tracer=tracer,
        )
        self._round = 0
        self._workers: Optional[_ShmWorkers] = None
        if shards > 1:
            self._workers = _ShmWorkers(
                shards, per_shard_alpha, epsilon, self._queries.__getitem__,
                self.metrics, tracer,
            )

    # -- subscriptions (batch entries in stream order) ------------------------

    def subscribe(self, query: Any, on_results: Optional[ResultCallback] = None) -> Any:
        """Register a continuous query.  The subscription joins the pending
        batch at its stream position: it answers exactly the data events
        submitted after it, and joins every row inserted before it."""
        self._subscribe(QueryEvent(EventKind.INSERT, query), on_results)
        return query

    def unsubscribe(self, query: Any) -> None:
        """Cancel a subscription at this stream position: it still answers
        the data events submitted before it.  Its query and callback stay
        resolvable by qid until the batch that applies the cancellation."""
        self._unsubscribe(QueryEvent(EventKind.DELETE, query))

    def _subscribe(
        self, event: QueryEvent, on_results: Optional[ResultCallback] = None
    ) -> None:
        query = event.query
        qid = query.qid
        if qid in self._placements:
            raise ValueError(f"duplicate query id {qid}")
        indices = self.router.shards_for_query(query)
        if qid in self._queries:
            # Its unsubscribe is still pending: one batch holds one life
            # of a qid, so this is the one barrier left.
            self.drain()
        # Validate-then-log: the WAL never sees a rejected subscription change.
        if self.durability is not None:
            self.durability.log_event(event)
        self._placements[qid] = indices
        self._queries[qid] = query
        self.router.note_query(query, indices, +1)
        if on_results is not None:
            self._callbacks[qid] = on_results
        self._enqueue_query(event, indices)

    def _unsubscribe(self, event: QueryEvent) -> None:
        # Known by qid alone, everywhere downstream: after recovery the
        # registered instance is a decoded copy of the caller's.
        qid = event.query.qid
        indices = self._placements[qid]
        if self.durability is not None:
            self.durability.log_event(event)
        del self._placements[qid]
        self.router.note_query(event.query, indices, -1)
        self._enqueue_query(event, indices)

    def _enqueue_query(self, event: QueryEvent, placement: List[int]) -> None:
        """Queue a subscription change; it counts toward ``batch_size``."""
        batcher = self._batcher
        batcher.add((-1, event, placement))
        if len(batcher) >= batcher.max_batch:
            self.flush()

    @property
    def subscription_count(self) -> int:
        return len(self._placements)

    def query_by_id(self, qid: int) -> Any:
        return self._queries[qid]

    # -- ingress -------------------------------------------------------------

    def submit(self, event: object) -> bool:
        """Enqueue one event; flush once ``batch_size`` entries are pending.

        Always returns True: nothing is ever refused.  The return value is
        kept for callers that still count a falsy one as a refusal."""
        durability = self.durability
        if isinstance(event, QueryEvent):
            if event.kind is EventKind.INSERT:
                self._subscribe(event)
            else:
                self._unsubscribe(event)
            if durability is not None and durability.checkpoint_due:
                durability.checkpoint(self)
            return True
        if not isinstance(event, DataEvent):
            raise TypeError(f"unsupported event type: {type(event).__name__}")
        if durability is not None:
            # Log-before-apply (a no-op while recovery replays into us).
            durability.log_event(event)
        seq = self._seq
        self._seq += 1
        self._events_submitted.inc()
        batcher = self._batcher
        batcher.add((seq, event, time.perf_counter_ns()))
        pending = len(batcher)
        self._depths.append(pending)
        if pending >= batcher.max_batch:
            self.flush()
        if durability is not None and durability.checkpoint_due:
            durability.checkpoint(self)
        return True

    def _fold_depths(self) -> None:
        """``pipeline/queue_depth`` catches up: one ``observe`` per event."""
        if self._depths:
            self._queue_depth.merge_delta(**histogram_delta(self._depths))
            self._depths.clear()

    @property
    def pending(self) -> int:
        return len(self._batcher)

    @property
    def cancelled_pairs(self) -> List[Tuple[int, int]]:
        """Always empty: every submitted event is applied.  Kept for
        callers that still subtract cancelled insert+delete pairs."""
        return []

    # -- batch execution -----------------------------------------------------

    @pauses_collector
    def flush(self) -> List[Tuple[int, DataEvent, Delta]]:
        """Process one pending batch; returns ``(seq, event, deltas)`` in
        arrival order (empty if nothing was pending).  Result callbacks
        run with the cyclic collector paused."""
        batch = self._batcher.drain()
        self._fold_depths()
        if not batch:
            return []
        with self.tracer.span("batch", events=len(batch)):
            return self._flush_batch(batch)

    def _flush_batch(
        self, batch: List[BatchEntry]
    ) -> List[Tuple[int, DataEvent, Delta]]:
        if self.durability is not None:
            # Batch-boundary durability barrier: every event a shard is
            # about to apply is already on media (fsync policy permitting).
            self.durability.sync()
        route, note = self.router.route_event, self.router.note_event
        entries: List[ShardEntry] = []
        ingest_ns: List[int] = []
        data: List[BatchEntry] = []
        retired: List[int] = []
        cancel = EventKind.DELETE
        for entry in batch:
            seq, event, stamp = entry
            if seq < 0:  # a subscription change: already a shard entry
                entries.append(entry)
                ingest_ns.append(0)
                if event.kind is cancel:
                    retired.append(event.query.qid)
                continue
            owner = route(event)
            note(owner)
            entries.append((seq, event, owner))
            ingest_ns.append(stamp)
            data.append(entry)
        applied = self._apply(entries, ingest_ns)
        # Only the parts that hold a delta, in shard-index order (the order
        # merge_deltas keeps): an event no shard answered needs no slot.
        parts: Dict[int, List[Delta]] = {}
        for index, (elapsed, results) in sorted(applied.items()):
            # Every data event reaches every shard that holds a query (a
            # shard that holds none is not in ``applied``).
            batch_us, events = self._shard_metrics[index]
            batch_us.observe(elapsed * 1e6)
            events.inc(len(data))
            for seq, deltas in results:
                if deltas:
                    parts.setdefault(seq, []).append(deltas)
        out: List[Tuple[int, DataEvent, Delta]] = []
        callbacks = self._callbacks
        result_rows = 0
        e2e_us: List[float] = []
        # End-to-end latency: ingress stamp → delta emission, which moves
        # only when a callback ran — one clock read per batch plus those.
        now = time.perf_counter_ns()
        for seq, event, stamp in data:
            merged: Delta = {}
            answered = parts.get(seq)
            if answered is not None:
                merged = merge_deltas(answered)
                result_rows += sum(map(len, merged.values()))
                if callbacks:
                    called = False
                    for query, matches in merged.items():
                        callback = callbacks.get(query.qid)
                        if callback is not None:
                            callback(query, event.row, matches)
                            called = True
                    if called:
                        now = time.perf_counter_ns()
            if stamp:
                e2e_us.append((now - stamp) / 1_000.0)
            out.append((seq, event, merged))
        # Retired only now: the batch's earlier events still answered them.
        for qid in retired:
            del self._queries[qid]
            self._callbacks.pop(qid, None)
        self._results_produced.inc(result_rows)
        if e2e_us:
            # One fold per batch.
            self._e2e_us.merge_delta(**histogram_delta(e2e_us))
        self._events_applied.inc(len(data))
        if len(data) < len(batch):
            self._query_events.inc(len(batch) - len(data))
        self._batches.inc()
        self._batch_size_hist.observe(len(data))
        if self._sink is not None:
            self._sink.extend(out)
        return out

    def _apply(
        self, entries: List[ShardEntry], ingest_ns: List[int]
    ) -> ShardBatchResults:
        """Every shard's (seconds, results) for one batch, but for a shard
        that held no query.  Inline, the group applies its one shard.  In
        ``process-shm`` the batch goes to the workers first; shard 0
        applies here while they run, and every worker's response is read
        before the first failure — shard 0's included — is raised."""
        if self.mode == "inline":
            applied = self._group.apply_batch(entries)
            return {} if applied is None else {0: applied}
        self._round += 1
        want_telemetry = self._round % TELEMETRY_EVERY == 0
        workers = self._workers
        with self.tracer.span(
            "transport.roundtrip", shards=self.router.num_shards
        ) as roundtrip:
            if workers is not None:
                workers.send(
                    entries, ingest_ns, want_telemetry, getattr(roundtrip, "span_id", 0)
                )
            out: ShardBatchResults = {}
            failure: Optional[Exception] = None
            # Timed whole, as a worker times its apply.
            start = time.perf_counter()
            try:
                applied = self._group.apply_batch(entries)
                if applied is not None:  # shard 0 held a query
                    out[0] = (time.perf_counter() - start, applied[1])
            except Exception as exc:
                failure = exc
            if workers is not None:
                # Read every response, even after shard 0 failed.
                transport_failure = workers.collect(out, want_telemetry)
                failure = failure or transport_failure
            if want_telemetry:
                self._sample_group()  # as a worker does before it ships
            if failure is not None:
                raise failure
            return out

    def drain(self) -> List[Tuple[int, DataEvent, Delta]]:
        """Flush until no events are pending."""
        out: List[Tuple[int, DataEvent, Delta]] = []
        while len(self._batcher):
            out.extend(self.flush())
        return out

    def run(
        self, events: Iterable[object]
    ) -> List[Tuple[int, DataEvent, Delta]]:
        """Submit an event stream, drain, and return every applied event's
        ``(seq, event, deltas)`` in sequence order.

        Every flush during the run (a full batch, a reused qid) feeds the
        same collection, so the caller sees one ordered result list for the
        whole stream."""
        collected: List[Tuple[int, DataEvent, Delta]] = []
        outer_sink, self._sink = self._sink, collected
        try:
            for event in events:
                self.submit(event)
            self.drain()
        finally:
            self._sink = outer_sink
        collected.sort(key=lambda item: item[0])
        if self._sink is not None:
            self._sink.extend(collected)
        return collected

    @property
    def table_set(self) -> ShardGroup:
        """The in-process shard group, shard 0's, whose tables hold every
        row in either mode (each ``process-shm`` process holds one full
        table set).  The durable checkpointer snapshots its tables."""
        return self._group

    @property
    def shard_group(self) -> ShardGroup:
        """The in-process table set and its shard, all of it (inline mode)."""
        if self.mode != "inline":
            raise RuntimeError("shard state is not in-process in process-shm mode")
        return self._group

    @property
    def shards(self) -> List[Shard]:
        """The pipeline's one shard (inline mode)."""
        return [self.shard_group.shard]

    def _sample_group(self) -> List[HeadroomSample]:
        """The in-process shard's samples; it also sets its gauges."""
        return self._group.shard.sample_telemetry()

    def sample_hotspots(self) -> List[HeadroomSample]:
        """Refresh and return every shard plane's I2 headroom sample.

        Each sample recomputes that plane's tau by a full sweep, so this
        belongs on the reporting interval, not the event path.  Returns
        ``[]`` in ``process-shm`` mode (every shard's samples — shard 0's
        from the parent's own group, the others' drained from the workers
        — land in ``obs/shard/...`` gauges instead) and when the hotspot
        tracker is disabled (``alpha=None``).
        """
        samples = self._sample_group()
        if self.mode == "inline":
            return samples
        if self._workers is not None:
            self._workers.drain_telemetry()
        return []

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain, then release durability and the workers — also when the
        drain raises (a dead worker), so no segment or process leaks."""
        try:
            self.drain()
        finally:
            try:
                if self.durability is not None:
                    self.durability.sync()
                    self.durability.close()
            finally:
                if self._workers is not None:
                    self._workers.close()

    def __enter__(self) -> "EventPipeline":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
