"""`DurabilityManager`: the runtime's one handle on the durability stack.

Wiring contract (the host is an
:class:`~repro.runtime.pipeline.EventPipeline` in either mode, which
accepts a manager at construction):

* **log-before-apply** — the host calls :meth:`log_event` for every
  accepted event *before* any shard sees it, so the WAL is always a
  superset of applied state and replaying it can only move state forward;
* **validate-then-log** — a subscription change is logged only once the
  host has accepted it (no duplicate qid, a supported query type, a known
  qid to cancel): a rejected change raises to its caller and leaves no
  record, because a record recovery cannot re-apply poisons the log;
* **sync at batch boundaries** — the host calls :meth:`sync` before
  applying a drained micro-batch, which is what the ``batch`` fsync
  policy means: every event a shard has applied is already durable;
* **checkpoint trigger** — after applying events the host checks
  :attr:`checkpoint_due` and calls :meth:`checkpoint`, which drains the
  host, snapshots its rows and queries into one file atomically, and
  prunes covered WAL segments.  The trigger is *count-based* (events
  since last checkpoint), not time-based, keeping the whole subsystem on
  the deterministic sequence plane.

Metrics (registered under ``durability/``): ``wal_append_seconds``
(histogram; one sample per :meth:`sync` that has records to write: the
time to hand the batch's WAL tail to the OS, fsync excluded),
``wal_fsync_total`` (counter, by the WAL),
``checkpoint_duration_seconds`` (histogram), ``checkpoints_total``,
``recovered_events_total`` and ``wal_torn_tail_total`` (counters; the last
counts attaches that recovered across a torn final record).

A manager must be :meth:`attach`\\ ed before logging: attach recovers any
existing durable state into the host (with logging suppressed, so replay
is not re-logged) and opens the WAL for append at the recovered sequence
number.
"""

from __future__ import annotations

import time
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, Optional

from repro.durability.checkpoint import prune_checkpoints, write_checkpoint
from repro.durability.recovery import RecoveryReport, recover_into
from repro.durability.wal import DEFAULT_SEGMENT_BYTES, WriteAheadLog
from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.pipeline import EventPipeline
from repro.wire import DurabilityError, encode_event

__all__ = ["DurabilityManager"]


class DurabilityManager:
    """Owns one WAL directory and its checkpoints on behalf of a host."""

    def __init__(
        self,
        directory: Path,
        *,
        fsync: str = "batch",
        checkpoint_every: Optional[int] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.checkpoint_every = checkpoint_every
        self.segment_bytes = segment_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._append_seconds = self.metrics.histogram("durability/wal_append_seconds")
        self._checkpoint_seconds = self.metrics.histogram(
            "durability/checkpoint_duration_seconds"
        )
        self._wal: Optional[WriteAheadLog] = None
        self._replaying = False
        self._events_since_checkpoint = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def attach(self, target: EventPipeline) -> RecoveryReport:
        """Recover existing durable state into ``target`` (which must be
        fresh), then open the WAL for append at the recovered sequence."""
        if self._wal is not None:
            raise DurabilityError("manager is already attached")
        self._replaying = True
        try:
            report = recover_into(target, self.directory)
        finally:
            self._replaying = False
        self.metrics.counter("durability/recovered_events_total").inc(
            report.recovered_events
        )
        if report.torn_tail:
            self.metrics.counter("durability/wal_torn_tail_total").inc()
        self._wal = WriteAheadLog(
            self.directory,
            start_seq=report.next_seq,
            fsync=self.fsync_policy,
            segment_bytes=self.segment_bytes,
            metrics=self.metrics,
        )
        return report

    @property
    def attached(self) -> bool:
        return self._wal is not None

    @property
    def replaying(self) -> bool:
        return self._replaying

    @property
    def next_seq(self) -> int:
        if self._wal is None:
            raise DurabilityError("manager is not attached")
        return self._wal.next_seq

    @property
    def wal(self) -> WriteAheadLog:
        if self._wal is None:
            raise DurabilityError("manager is not attached")
        return self._wal

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- logging -------------------------------------------------------------

    def log_event(self, event: object) -> Optional[int]:
        """Append one event to the WAL's tail (log-before-apply: the tail
        reaches the OS at the :meth:`sync` before its batch is applied);
        returns its sequence number, or None while recovery replay is in
        flight (the records being replayed are already durable)."""
        if self._replaying:
            return None
        wal = self._wal
        if wal is None:
            raise DurabilityError("log_event before attach()")
        seq = wal.append(encode_event(event))
        self._events_since_checkpoint += 1
        return seq

    def sync(self) -> None:
        """Durability barrier before a batch is applied: the WAL tail goes
        to the OS in one write (the ``wal_append_seconds`` sample), then is
        fsynced under the ``batch`` policy."""
        wal = self._wal
        if wal is None:
            return
        with self.tracer.span("wal.sync"):
            if wal.buffered_bytes:
                # Timing instrumentation only; nothing downstream reads this clock.
                start = time.perf_counter()
                wal.flush()
                self._append_seconds.observe(time.perf_counter() - start)
            wal.sync()

    # -- checkpointing -------------------------------------------------------

    @property
    def checkpoint_due(self) -> bool:
        return (
            self.checkpoint_every is not None
            and self._events_since_checkpoint >= self.checkpoint_every
        )

    def checkpoint(self, source: EventPipeline) -> Path:
        """Snapshot ``source``'s state, publish it atomically, and prune
        WAL segments and checkpoints it supersedes.

        ``source`` is the attached host: it is drained first (pending
        micro-batches must reach the shards before the snapshot claims to
        cover their sequence numbers).  ``write_checkpoint`` fsyncs the
        directory after its rename, so nothing is unlinked before the new
        checkpoint is durable.
        """
        if self._wal is None:
            raise DurabilityError("checkpoint before attach()")
        with self.tracer.span("checkpoint"):
            start = time.perf_counter()
            source.drain()
            self._wal.sync()
            next_seq = self._wal.next_seq
            path = write_checkpoint(
                self.directory,
                next_seq=next_seq,
                payload=self._payload(source),
                config=self._config_of(source),
            )
            prune_checkpoints(self.directory, keep=path)
            self._wal.prune(next_seq)
            self._events_since_checkpoint = 0
            self.metrics.counter("durability/checkpoints_total").inc()
            elapsed = time.perf_counter() - start
            self._checkpoint_seconds.observe(elapsed)
            return path

    @staticmethod
    def _payload(source: EventPipeline) -> bytes:
        """Every row (R by rid, then S by sid), then every live query by
        qid, as wire records: the one table set and query map the host
        holds in either mode."""
        tables = source.table_set
        events = [
            *(DataEvent(EventKind.INSERT, "R", row)
              for row in sorted(tables.table_r, key=attrgetter("rid"))),
            *(DataEvent(EventKind.INSERT, "S", row)
              for row in sorted(tables.table_s, key=attrgetter("sid"))),
            *(QueryEvent(EventKind.INSERT, source.query_by_id(qid))
              for qid in sorted(source._queries)),
        ]
        return b"".join(map(encode_event, events))

    @staticmethod
    def _config_of(source: EventPipeline) -> Dict[str, Any]:
        return {
            "alpha": source.alpha,
            "epsilon": source.epsilon,
        }
