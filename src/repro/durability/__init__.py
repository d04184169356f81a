"""repro.durability: event-sourced durability for the sharded runtime.

The subsystem gives :class:`~repro.runtime.pipeline.EventPipeline` — the
one host of shard state — a crash story: every accepted event is logged to
a segmented, CRC-framed write-ahead log *before* it is applied
(:mod:`repro.durability.wal`, records in the shared :mod:`repro.wire`
format), periodic checkpoints — one file of every row and live query —
bound the replay tail (:mod:`repro.durability.checkpoint`), and recovery
restores the newest valid checkpoint plus a sequence-deduped WAL replay,
tolerating the torn final record a crash leaves behind
(:mod:`repro.durability.recovery`).  :class:`DurabilityManager` is the
single handle the runtime wires in (:mod:`repro.durability.manager`).

Everything on the recovery path runs on the deterministic sequence-number
plane (lint rule RA001 covers this package); wall clocks appear only as
checkpoint metadata.  Entry points: ``repro serve --wal-dir`` and
``repro recover``.
"""

from repro.wire import (
    CODEC_VERSION,
    CodecError,
    DurabilityError,
    Unsubscribe,
    decode_record,
    decode_stream,
    encode_event,
)
from repro.durability.checkpoint import (
    CheckpointError,
    LoadedCheckpoint,
    load_latest_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import (
    RecoveryError,
    RecoveryReport,
    recover_into,
    recover_system,
)
from repro.durability.wal import (
    WalCorruptionError,
    WalReadResult,
    WalRecord,
    WriteAheadLog,
    read_wal,
)

__all__ = [
    "CODEC_VERSION",
    "CheckpointError",
    "CodecError",
    "DurabilityError",
    "DurabilityManager",
    "LoadedCheckpoint",
    "RecoveryError",
    "RecoveryReport",
    "Unsubscribe",
    "WalCorruptionError",
    "WalReadResult",
    "WalRecord",
    "WriteAheadLog",
    "decode_record",
    "decode_stream",
    "encode_event",
    "load_latest_checkpoint",
    "prune_checkpoints",
    "read_wal",
    "recover_into",
    "recover_system",
    "write_checkpoint",
]
