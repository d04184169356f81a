"""Checkpoints: one atomic snapshot file that bounds WAL replay.

A checkpoint is one file, ``checkpoint-<next_seq 20 digits>.snap``::

    header    <4sHHI>  magic b"RCKP", checkpoint version, codec version,
                       crc32 of everything after the header
    body      <QI>     next_seq, metadata length
              metadata UTF-8 JSON {"config": {...}, "created_at_unix": ...}
              records  every row (R by rid, then S by sid), then every
                       live query (by qid), as repro.wire records

``next_seq`` is the first WAL sequence number *not* reflected in the
snapshot; recovery restores the snapshot and replays the WAL from there.
Recovery applies *all* rows before *any* subscription: a freshly
subscribed query emits no deltas for pre-existing rows, so restore order
row-then-query reproduces exactly the structures an uninterrupted run
would hold.  Nothing in the file depends on the shard count or the mode:
restore re-routes every record through ``submit``.

Writes are crash-safe by construction: the file is written to a ``.tmp``
sibling, fsynced, published with one atomic ``os.replace``, and the
directory is fsynced before the caller unlinks anything the checkpoint
supersedes.  A reader either sees a complete checkpoint or none.  One
that fails validation (bad magic, version or CRC, a malformed record, a
file cut short) makes recovery skip it and fall back to an older one — or
to full-WAL replay.

The metadata's ``created_at_unix`` field is *metadata only* (operator
forensics: "how stale is this snapshot?").  Nothing on the recovery or
replay path reads it — progress is measured in sequence numbers — which is
why the RA001 determinism rule allowlists wall-clock reads in exactly this
module and nowhere else in the subsystem.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.events import DataEvent
from repro.wire import (
    CODEC_VERSION, DecodedRecord, DurabilityError, Reader, decode_stream,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "LoadedCheckpoint",
    "checkpoint_files",
    "write_checkpoint",
    "load_latest_checkpoint",
    "prune_checkpoints",
]

CHECKPOINT_MAGIC = b"RCKP"
CHECKPOINT_VERSION = 2
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".snap"

_HEADER = struct.Struct("<4sHHI")
_BODY = struct.Struct("<QI")


class CheckpointError(DurabilityError):
    """A checkpoint could not be written or no candidate is loadable."""


@dataclass(slots=True)
class LoadedCheckpoint:
    """A validated snapshot, decoded and split into restore phases."""

    next_seq: int
    config: Dict[str, Any]
    rows: List[DecodedRecord] = field(default_factory=list)
    subscriptions: List[DecodedRecord] = field(default_factory=list)
    path: Optional[Path] = None


def checkpoint_files(directory: Path) -> List[Path]:
    """Checkpoint files, oldest first (the name embeds next_seq)."""
    return sorted(Path(directory).glob(f"{CHECKPOINT_PREFIX}*{CHECKPOINT_SUFFIX}"))


def write_checkpoint(
    directory: Path,
    *,
    next_seq: int,
    payload: bytes,
    config: Dict[str, Any],
) -> Path:
    """Write one checkpoint atomically; returns the published file.

    ``payload`` is the snapshot's concatenated wire records.  The file is
    fsynced under its ``.tmp`` name, renamed into place, and the directory
    fsynced, so the rename is durable before this returns.
    """
    # Metadata only: never read by recovery (see module docstring).
    metadata = json.dumps(
        {"config": dict(config), "created_at_unix": time.time()}, sort_keys=True
    ).encode("utf-8")
    body = _BODY.pack(next_seq, len(metadata)) + metadata + payload
    final = Path(directory) / f"{CHECKPOINT_PREFIX}{next_seq:020d}{CHECKPOINT_SUFFIX}"
    tmp = final.with_name(final.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(
            _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CODEC_VERSION, zlib.crc32(body))
        )
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    descriptor = os.open(final.parent, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
    return final


def _load_one(path: Path) -> LoadedCheckpoint:
    """Validate and decode one checkpoint file; raises a
    :class:`~repro.wire.DurabilityError` on any inconsistency."""
    reader = Reader(path.read_bytes(), CheckpointError)
    magic, version, codec_version, crc = reader.unpack(_HEADER, "header")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if codec_version != CODEC_VERSION:
        raise CheckpointError(f"codec version {codec_version}, expected {CODEC_VERSION}")
    if zlib.crc32(reader.data[reader.offset :]) != crc:
        raise CheckpointError("CRC mismatch")
    next_seq, metadata_size = reader.unpack(_BODY, "body header")
    metadata = reader.build(json.loads, reader.take(metadata_size, "metadata"))
    loaded = LoadedCheckpoint(next_seq, dict(metadata["config"]), path=path)
    for record in decode_stream(reader.take(reader.remaining, "records")):
        if isinstance(record, DataEvent):
            loaded.rows.append(record)
        else:
            loaded.subscriptions.append(record)
    return loaded


def load_latest_checkpoint(
    directory: Path,
) -> Tuple[Optional[LoadedCheckpoint], List[str]]:
    """Newest checkpoint that validates, plus a note per candidate skipped.

    Candidates are tried newest-first; a damaged one is recorded and the
    scan falls back, so a bad final checkpoint degrades recovery to the
    previous checkpoint (or a full WAL replay), never to a crash.
    """
    skipped: List[str] = []
    for path in reversed(checkpoint_files(directory)):
        try:
            return _load_one(path), skipped
        except DurabilityError as exc:
            skipped.append(f"{path.name}: {exc}")
    return None, skipped


def prune_checkpoints(directory: Path, keep: Path) -> List[Path]:
    """Remove every checkpoint file other than ``keep`` (called after a
    successful write; superseded snapshots only slow the next scan)."""
    removed = [path for path in checkpoint_files(directory) if path != keep]
    for path in removed:
        path.unlink()
    return removed
