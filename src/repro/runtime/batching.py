"""Micro-batching of pending events.

Events accumulate in a :class:`MicroBatcher` up to a size bound, then
flush as one batch in arrival order.  The size bound is the pipeline's
only trigger (the submit that fills a batch flushes it), besides a
caller's own ``flush`` or ``drain``.
Nothing is removed on the way: every submitted data event reaches the
shards, and its delta is the per-event reference's — an insert and a
delete of the same row inside one batch are answered exactly by the
shards' visibility intervals (``ShardGroup.apply_batch``).

Subscription changes are entries too (``seq`` -1), in stream order among
the data events, and count toward ``max_batch``.

The batcher knows nothing of shards: an entry (:data:`BatchEntry`) is a
sequence number, an event and its ingest stamp, and the pipeline routes
it when the batch flushes.
"""

from __future__ import annotations

from typing import Any, List, Tuple

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


class MicroBatcher:
    """Accumulates pending :data:`BatchEntry` items; ``drain()`` returns
    up to ``max_batch`` of the oldest, in arrival order."""

    __slots__ = ("max_batch", "_pending")

    def __init__(self, max_batch: int = 64):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self._pending: List[BatchEntry] = []

    def add(self, entry: BatchEntry) -> None:
        """Queue a data event or a subscription change."""
        self._pending.append(entry)

    def __len__(self) -> int:
        return len(self._pending)

    def drain(self) -> List[BatchEntry]:
        """Remove and return the next batch (the oldest entries)."""
        batch = self._pending[: self.max_batch]
        self._pending = self._pending[self.max_batch :]
        return batch
