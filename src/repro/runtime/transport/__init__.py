"""Zero-copy shared-memory transport for the process data plane.

Shard workers are separate processes, so every batch and every delta
crosses a process boundary.  Pickling them would serialize one object per
:class:`~repro.engine.events.DataEvent` and per qid-keyed delta dict, and
execute code on load; this package moves them as flat columnar frames over
shared memory instead:

* :mod:`repro.runtime.transport.shm` — a fixed-capacity SPSC ring buffer
  over :mod:`multiprocessing.shared_memory` with CRC32-framed records,
  ring-full backpressure (block with deadline) and idempotent
  teardown/unlink semantics.
* :mod:`repro.runtime.transport.frames` — a versioned columnar frame
  codec over the rows, records and reader of :mod:`repro.wire`:
  data runs travel as flat id/float arrays, subscription changes as wire
  records in their stream position, result deltas as (seq, qid, sign,
  row-ref) tuples resolved against the frame's own row table.
* :mod:`repro.runtime.transport.worker` — the persistent shard-worker
  loop: drain the request ring, apply, answer on the response ring, exit
  on a shutdown frame.

The BATCH frame also carries per-entry monotonic ingest timestamps plus
the parent's trace context, and a telemetry-flagged batch is answered
with RESULT **then** one TELEMETRY frame — worker span batches and metric
deltas the pipeline merges back into the parent registry and trace (see
:mod:`repro.obs.remote`).

The pipeline side lives in :class:`repro.runtime.pipeline.EventPipeline`
(``mode="process-shm"``).
"""

from repro.runtime.transport.frames import (
    BATCH_FLAG_TELEMETRY,
    FRAME_TELEMETRY,
    FRAME_VERSION,
    DecodedBatch,
    FrameError,
    HistogramDelta,
    TelemetryPayload,
    decode_frame,
    encode_batch_frame,
    encode_result_frame,
    encode_telemetry_frame,
)
from repro.runtime.transport.shm import (
    FrameCorruptionError,
    RingTimeoutError,
    ShmRing,
    TransportError,
)

__all__ = [
    "BATCH_FLAG_TELEMETRY",
    "FRAME_TELEMETRY",
    "FRAME_VERSION",
    "DecodedBatch",
    "FrameError",
    "FrameCorruptionError",
    "HistogramDelta",
    "RingTimeoutError",
    "ShmRing",
    "TelemetryPayload",
    "TransportError",
    "decode_frame",
    "encode_batch_frame",
    "encode_result_frame",
    "encode_telemetry_frame",
]
