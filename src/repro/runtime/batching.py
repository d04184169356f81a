"""Micro-batching of pending events.

The pipeline coalesces updates before they reach the shard workers: events
accumulate in a :class:`MicroBatcher` up to a size bound (and, in the
pipeline, a latency bound), then flush as one batch.  Coalescing cancels
matched insert+delete pairs — a row inserted and deleted while both events
are still pending was never visible under the batch's atomic visibility
contract, so neither event needs to touch a shard.  Survivors keep their
original arrival order, so per-key (and in fact total) event order is
preserved for everything that is actually applied.

A delete whose insert already flushed in an earlier batch is *not*
cancelled — it must reach the shards to remove installed state.

Subscription changes are entries too (``seq`` -1), in stream order among
the data events.  They count toward ``max_batch``, but nothing here removes
one: coalescing only ever touches data entries.

The batcher knows nothing of shards: an entry (:data:`BatchEntry`) is a
sequence number, an event and its ingest stamp, and the pipeline routes
the survivors when the batch flushes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.engine.events import DataEvent, EventKind

#: One pending entry, ``(seq, event, stamp)`` — the shape of the
#: ``(seq, event, owner)`` a shard reads, but routing happens at flush, once
#: per event, not here.  A data event's ``seq`` is its global sequence
#: number and its ``stamp`` the submitter's ``perf_counter_ns`` reading at
#: ingress (0 = unknown): the anchor for end-to-end latency, carried
#: through batching and across the shm transport so both the worker and
#: the parent can measure against the same monotonic clock.  A
#: subscription change (a :class:`QueryEvent`) has ``seq`` -1 — it answers
#: nothing, and data events keep dense sequence numbers — and, as its
#: stamp, its placement: the shard indices its query registers in.
BatchEntry = Tuple[int, Any, Any]


def _row_key(event: DataEvent) -> Tuple[str, int]:
    """Identity of the row an event refers to (relation + surrogate id)."""
    row = event.row
    rid = row.rid if event.relation == "R" else row.sid
    return (event.relation, rid)


@dataclass(slots=True)
class BatchStats:
    """Lifetime coalescing accounting for one batcher."""

    events_in: int = 0
    events_out: int = 0
    coalesced_pairs: int = 0
    batches: int = 0
    cancelled: List[Tuple[int, int]] = field(default_factory=list)


class MicroBatcher:
    """Accumulates pending :data:`BatchEntry` items and drains them as
    coalesced batches.

    ``max_batch`` is the flush threshold (``is_due`` turns true);
    ``drain()`` returns up to ``max_batch`` oldest survivors after
    cancelling insert+delete pairs that are both still pending.
    """

    __slots__ = ("max_batch", "_pending", "stats")

    def __init__(self, max_batch: int = 64):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self._pending: List[BatchEntry] = []
        self.stats = BatchStats()

    def add(self, entry: BatchEntry) -> None:
        """Queue a data event or a subscription change."""
        self._pending.append(entry)
        self.stats.events_in += 1

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def is_due(self) -> bool:
        return len(self._pending) >= self.max_batch

    def coalesce_pending(self) -> List[Tuple[int, int]]:
        """Cancel insert+delete pairs among the pending events.

        Returns the cancelled ``(insert_seq, delete_seq)`` pairs.  Only a
        delete *following* a pending insert of the same row cancels; the
        relative order of all surviving events is untouched.
        """
        pending_inserts: Dict[Tuple[str, int], int] = {}
        cancelled_positions: Set[int] = set()
        pairs: List[Tuple[int, int]] = []
        for pos, (seq, event, __) in enumerate(self._pending):
            if seq < 0:  # a subscription change
                continue
            key = _row_key(event)
            if event.kind is EventKind.INSERT:
                pending_inserts[key] = pos
            else:
                insert_pos = pending_inserts.pop(key, None)
                if insert_pos is not None:
                    cancelled_positions.add(insert_pos)
                    cancelled_positions.add(pos)
                    pairs.append((self._pending[insert_pos][0], seq))
        if cancelled_positions:
            self._pending = [
                entry
                for pos, entry in enumerate(self._pending)
                if pos not in cancelled_positions
            ]
            self.stats.coalesced_pairs += len(pairs)
            self.stats.cancelled.extend(pairs)
        return pairs

    def drain(self, *, coalesce: bool = True) -> List[BatchEntry]:
        """Remove and return the next batch (oldest-first survivors)."""
        if coalesce and len(self._pending) > 1:  # a pair needs two entries
            self.coalesce_pending()
        batch = self._pending[: self.max_batch]
        self._pending = self._pending[self.max_batch :]
        if batch:
            self.stats.events_out += len(batch)
            self.stats.batches += 1
        return batch
