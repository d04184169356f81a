"""Per-shard checkpoints: atomic snapshots that bound WAL replay.

A checkpoint is a directory ``checkpoint-<next_seq 20 digits>/`` holding
one binary snapshot file per shard plus a JSON manifest::

    checkpoint-00000000000000004096/
        manifest.json
        shard-0.snap
        shard-1.snap
        ...

``next_seq`` is the first WAL sequence number *not* reflected in the
snapshot; recovery restores the snapshot and replays the WAL from there.
Each ``shard-k.snap`` is a concatenation of codec records covering shard
``k``'s slice of the durable state, partitioned the same way the router
partitions the select plane (R rows by ``B``, S rows by ``C``, queries by
their first placement shard) — slices are disjoint, so restoring is the
union of all files.  Within a file rows precede subscriptions, and
recovery applies *all* rows before *any* subscription: a freshly
subscribed query emits no deltas for pre-existing rows, so restore order
row-then-query reproduces exactly the structures an uninterrupted run
would hold.

Writes are crash-safe by construction: everything is written into a
``.tmp`` sibling, fsynced, then published with one atomic ``os.replace``.
A reader either sees a complete checkpoint or none.  The manifest stores a
CRC32 per snapshot file; validation failure (bad CRC, missing file, bad
version) makes recovery skip that checkpoint and fall back to an older
one — or to full-WAL replay.

The manifest's ``created_at_unix`` field is *metadata only* (operator
forensics: "how stale is this snapshot?").  Nothing on the recovery or
replay path reads it — progress is measured in sequence numbers — which is
why the RA001 determinism rule allowlists wall-clock reads in exactly this
module and nowhere else in the subsystem.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.events import DataEvent
from repro.wire import CODEC_VERSION, DecodedRecord, DurabilityError, decode_stream

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "LoadedCheckpoint",
    "checkpoint_dirs",
    "write_checkpoint",
    "load_latest_checkpoint",
    "prune_checkpoints",
]

CHECKPOINT_VERSION = 1
MANIFEST_NAME = "manifest.json"
CHECKPOINT_PREFIX = "checkpoint-"


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


def checkpoint_dirs(directory: Path) -> List[Path]:
    """Checkpoint directories, oldest first (the name embeds next_seq)."""
    return sorted(
        p
        for p in Path(directory).glob(f"{CHECKPOINT_PREFIX}*")
        if p.is_dir() and not p.name.endswith(".tmp")
    )


def _dir_for(directory: Path, next_seq: int) -> Path:
    return Path(directory) / f"{CHECKPOINT_PREFIX}{next_seq:020d}"


def write_checkpoint(
    directory: Path,
    *,
    next_seq: int,
    shard_payloads: List[bytes],
    config: Dict[str, Any],
) -> Path:
    """Write one checkpoint atomically; returns the published directory.

    ``shard_payloads[k]`` is shard ``k``'s concatenated codec records.  The
    temp directory is fully materialized (files fsynced) before the single
    ``os.replace`` that makes it visible.
    """
    final = _dir_for(directory, next_seq)
    tmp = final.with_name(final.name + ".tmp")
    if tmp.exists():
        _remove_tree(tmp)
    tmp.mkdir(parents=True)
    shard_entries: List[Dict[str, Any]] = []
    for index, payload in enumerate(shard_payloads):
        name = f"shard-{index}.snap"
        _write_file(tmp / name, payload)
        shard_entries.append(
            {"file": name, "crc32": zlib.crc32(payload), "bytes": len(payload)}
        )
    manifest = {
        "version": CHECKPOINT_VERSION,
        "codec_version": CODEC_VERSION,
        "next_seq": next_seq,
        "num_shards": len(shard_payloads),
        "shards": shard_entries,
        "config": dict(config),
        # Metadata only: never read by recovery (see module docstring).
        "created_at_unix": time.time(),
    }
    _write_file(
        tmp / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    if final.exists():
        _remove_tree(final)
    os.replace(tmp, final)
    return final


def _write_file(path: Path, payload: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


def _remove_tree(path: Path) -> None:
    for child in sorted(path.iterdir()):
        child.unlink()
    path.rmdir()


def _load_one(path: Path) -> LoadedCheckpoint:
    """Validate and decode one checkpoint directory; raises
    :class:`CheckpointError` on any inconsistency."""
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"{path.name}: missing {MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise CheckpointError(f"{path.name}: unreadable manifest: {exc}") from exc
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path.name}: unsupported checkpoint version {manifest.get('version')}"
        )
    if manifest.get("codec_version") != CODEC_VERSION:
        raise CheckpointError(
            f"{path.name}: codec version {manifest.get('codec_version')}, "
            f"expected {CODEC_VERSION}"
        )
    loaded = LoadedCheckpoint(
        next_seq=int(manifest["next_seq"]),
        config=dict(manifest.get("config", {})),
        path=path,
    )
    for entry in manifest["shards"]:
        snap = path / entry["file"]
        if not snap.exists():
            raise CheckpointError(f"{path.name}: missing snapshot {entry['file']}")
        payload = snap.read_bytes()
        if zlib.crc32(payload) != entry["crc32"]:
            raise CheckpointError(f"{path.name}: CRC mismatch in {entry['file']}")
        for record in decode_stream(payload):
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
    for path in reversed(checkpoint_dirs(directory)):
        try:
            return _load_one(path), skipped
        except DurabilityError as exc:
            skipped.append(str(exc))
    return None, skipped


def prune_checkpoints(directory: Path, keep: Path) -> List[Path]:
    """Remove every checkpoint directory other than ``keep`` (called after
    a successful write; superseded snapshots only slow the next scan)."""
    removed: List[Path] = []
    for path in checkpoint_dirs(directory):
        if path != keep:
            _remove_tree(path)
            removed.append(path)
    return removed
