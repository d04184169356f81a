"""Crash recovery: newest valid checkpoint + sequence-deduped WAL replay.

The recovery invariant this module delivers: after ``recover_into`` a
fresh :class:`~repro.runtime.pipeline.EventPipeline` (the one host of
shard state, so the one recovery target) holds *exactly* the state of the
crashed run up to its last
durable WAL record, and every delta it produces from then on is
byte-identical to what an uninterrupted run would have produced.  The
argument rests on two properties of the engine:

1. **Delta identity.**  Per-query result deltas depend only on the live
   row and subscription sets at event time, never on the order internal
   structures were built in (the fuzzer enforces this continuously), so
   rebuilding state by re-application reproduces all future behaviour.
2. **Sequence-driven progress.**  WAL sequence numbers are assigned in
   submission order, so "where we were" is a single integer.  Recovery
   restores a checkpoint covering ``[0, cp.next_seq)``, then replays only
   WAL records with ``seq >= cp.next_seq`` — records below that (retention
   prunes whole segments, so overlap is normal) are deduplicated by
   sequence number, not re-applied.  The records replayed must be exactly
   ``cp.next_seq, cp.next_seq + 1, ...``: a gap (the checkpoint that
   covered the pruned records failed validation, or is of a format this
   reader does not know) raises :class:`RecoveryError` instead of
   restoring a state that skips events.  No wall clock is consulted
   anywhere on this path (lint rule RA001 enforces that structurally).

A torn final record — the expected signature of a crash mid-write — is
tolerated and reported; CRC damage elsewhere raises
:class:`~repro.durability.wal.WalCorruptionError` out of recovery, because
silently dropping interior records would violate the invariant above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.checkpoint import load_latest_checkpoint
from repro.durability.wal import read_wal
from repro.runtime.pipeline import EventPipeline
from repro.wire import DecodedRecord, DurabilityError, Unsubscribe, decode_record

__all__ = ["RecoveryError", "RecoveryReport", "apply_record", "recover_into", "recover_system"]


class RecoveryError(DurabilityError):
    """Recovery could not reconstruct a consistent state."""


@dataclass(slots=True)
class RecoveryReport:
    """What one recovery pass did, in sequence-number terms."""

    next_seq: int = 0
    checkpoint_seq: Optional[int] = None
    checkpoint_rows: int = 0
    checkpoint_subscriptions: int = 0
    replayed_events: int = 0
    deduped_records: int = 0
    torn_tail: bool = False
    skipped_checkpoints: List[str] = field(default_factory=list)

    @property
    def recovered_events(self) -> int:
        return self.checkpoint_rows + self.checkpoint_subscriptions + self.replayed_events

    def summary(self) -> str:
        source = (
            f"checkpoint@{self.checkpoint_seq}"
            if self.checkpoint_seq is not None
            else "no checkpoint"
        )
        tail = " (torn tail sealed)" if self.torn_tail else ""
        return (
            f"recovery: {source} + {self.replayed_events} WAL record(s) replayed"
            f" ({self.deduped_records} deduped by seq); resuming at seq "
            f"{self.next_seq}{tail}"
        )


def apply_record(target: EventPipeline, record: DecodedRecord) -> None:
    """Apply one decoded record to a pipeline.

    ``submit`` takes data and subscribe events alike; an ``Unsubscribe``
    carries only a qid (the original query object died with the old
    process), so it is resolved through ``query_by_id`` first.
    """
    if isinstance(record, Unsubscribe):
        try:
            query = target.query_by_id(record.qid)
        except KeyError as exc:
            raise RecoveryError(
                f"unsubscribe of unknown query id {record.qid} during replay"
            ) from exc
        target.unsubscribe(query)
    else:
        target.submit(record)


def recover_into(target: EventPipeline, directory: Path) -> RecoveryReport:
    """Restore ``directory``'s durable state into a *fresh* ``target``.

    Phase 1 applies the newest valid checkpoint (all rows before any
    subscription — see ``checkpoint.py`` for why that order is exact);
    phase 2 replays the WAL tail with sequence-number dedupe, refusing a
    gap in the sequence.  The caller is responsible for suppressing
    re-logging while this runs (see
    :class:`~repro.durability.manager.DurabilityManager.attach`).
    """
    directory = Path(directory)
    report = RecoveryReport()
    loaded, skipped = load_latest_checkpoint(directory)
    report.skipped_checkpoints = skipped
    next_seq = 0
    if loaded is not None:
        report.checkpoint_seq = next_seq = loaded.next_seq
        for record in loaded.rows:
            apply_record(target, record)
        for record in loaded.subscriptions:
            apply_record(target, record)
        report.checkpoint_rows = len(loaded.rows)
        report.checkpoint_subscriptions = len(loaded.subscriptions)
    scan = read_wal(directory)
    report.torn_tail = scan.torn_tail
    # Seqs strictly increase (``read_wal`` enforces it), so only records
    # the checkpoint covers fall below ``next_seq``.
    for wal_record in scan.records:
        if wal_record.seq < next_seq:
            report.deduped_records += 1
            continue
        if wal_record.seq != next_seq:
            raise RecoveryError(
                f"WAL sequence gap: expected seq {next_seq}, found {wal_record.seq}"
                + "".join(f"; skipped {note}" for note in skipped)
            )
        apply_record(target, decode_record(wal_record.payload))
        next_seq += 1
        report.replayed_events += 1
    target.drain()
    report.next_seq = next_seq
    return report


def recover_system(
    directory: Path,
    *,
    alpha: Optional[float] = 0.01,
    epsilon: float = 1.0,
) -> Tuple[EventPipeline, RecoveryReport]:
    """Build an inline :class:`~repro.runtime.pipeline.EventPipeline` from
    durable state.

    ``alpha`` and ``epsilon`` come from the checkpoint's recorded config
    when one exists, falling back to the keyword defaults for WAL-only
    recovery.  The pipeline is inline, so it has one shard whatever
    produced the directory: restore re-routes every record through
    ``submit``, and the shard count and routing domain an older
    checkpoint records are ignored.
    Returns ``(pipeline, report)``; the pipeline has no durability
    manager, so nothing it is fed afterwards is logged.
    """
    loaded, __ = load_latest_checkpoint(Path(directory))
    config: Dict[str, Any] = loaded.config if loaded is not None else {}
    pipeline = EventPipeline(
        alpha=config.get("alpha", alpha),
        epsilon=float(config.get("epsilon", epsilon)),
    )
    report = recover_into(pipeline, directory)
    return pipeline, report
