"""Segmented, CRC-framed write-ahead log.

Layout on disk: a WAL directory holds segment files named
``wal-<first_seq 20 digits>.seg``.  Each segment starts with a fixed
header and then a run of framed records::

    header  <4sHHQ>   magic b"RWAL", wal version, codec version, first_seq
    frame   <IIQ>     payload_len, crc32(seq_le8 + payload), seq
            payload   payload_len bytes (codec record)

Sequence numbers are assigned by the log, monotonically, across segment
boundaries; they are the runtime's only notion of progress (recovery is
sequence-driven, never clock-driven).  Segments rotate when the active
file crosses ``segment_bytes``, which bounds both the unit of retention
pruning and the blast radius of corruption.

Torn-tail contract (what crash-injection exercises): a process can die
mid-``write``, leaving the *final* frame of the *last* segment incomplete.
Readers tolerate exactly that — an incomplete trailing frame (or a
truncated header of the last segment) ends the scan cleanly with
``torn_tail=True``.  Everything else is damage that truncation cannot
produce — a CRC mismatch on a complete frame, a short non-final segment, a
bad magic — and raises :class:`WalCorruptionError` instead of being
silently skipped.

Appends frame records into an in-memory **tail**; ``sync``, ``flush``,
rotation and ``close`` hand the whole tail to the OS in one ``write``, so
a micro-batch costs one system call, not one per record.  The bytes are
those a record-at-a-time writer would produce.  Fsync policy trades
durability for throughput:

* ``always`` — write + fsync every append (no acknowledged record is ever
  lost, even to a process crash; slowest);
* ``batch``  — write + fsync at ``sync()`` boundaries; the pipeline syncs
  per micro-batch before applying it, so a crash loses at most the batch
  still pending (logged, not applied);
* ``never``  — ``sync()`` writes but never fsyncs (tests/benchmarks); a
  process crash loses the pending batch, a machine crash anything after
  the last OS writeback.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from io import FileIO
from pathlib import Path
from typing import List, Optional

from repro.runtime.metrics import MetricsRegistry
from repro.wire import CODEC_VERSION, DurabilityError, Reader

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "WalCorruptionError",
    "WalRecord",
    "WalReadResult",
    "WriteAheadLog",
    "segment_path",
    "list_segments",
    "read_wal",
]

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1
SEGMENT_SUFFIX = ".seg"
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Sanity bound on a single record; real payloads are tens of bytes, so a
#: length field beyond this is corruption, not a large record.
MAX_PAYLOAD = 1 << 20

_HEADER = struct.Struct("<4sHHQ")
_FRAME = struct.Struct("<IIQ")
_FRAME_SIZE = _FRAME.size
_SEQ = struct.Struct("<Q")


class WalCorruptionError(DurabilityError):
    """The log contains damage that truncation alone cannot explain."""


class _Truncated(WalCorruptionError):
    """A segment ends inside its header or a frame: a torn tail if it is
    the last segment, corruption anywhere else."""


@dataclass(frozen=True, slots=True)
class WalRecord:
    seq: int
    payload: bytes


@dataclass(slots=True)
class WalReadResult:
    """Every valid record plus what the scan learned about the tail."""

    records: List[WalRecord] = field(default_factory=list)
    torn_tail: bool = False

    @property
    def next_seq(self) -> int:
        return self.records[-1].seq + 1 if self.records else 0


def segment_path(directory: Path, first_seq: int) -> Path:
    return directory / f"wal-{first_seq:020d}{SEGMENT_SUFFIX}"


def list_segments(directory: Path) -> List[Path]:
    """Segment files in first_seq order (the name embeds the sequence)."""
    return sorted(Path(directory).glob(f"wal-*{SEGMENT_SUFFIX}"))


def _crc(seq: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(_SEQ.pack(seq)))


def _read_segment(
    path: Path, is_last: bool, result: WalReadResult, last_seq: Optional[int]
) -> Optional[int]:
    """Append ``path``'s valid records to ``result``; returns the highest
    seq seen (for cross-segment monotonicity checking)."""
    reader = Reader(path.read_bytes(), _Truncated)
    if not reader.size:
        return last_seq  # empty segment: a crash between create and write
    try:
        magic, version, codec_version, first_seq = reader.unpack(_HEADER, "header")
        if magic != WAL_MAGIC:
            raise WalCorruptionError(f"{path.name}: bad magic {magic!r}")
        if version != WAL_VERSION:
            raise WalCorruptionError(f"{path.name}: unsupported WAL version {version}")
        if codec_version != CODEC_VERSION:
            raise WalCorruptionError(
                f"{path.name}: codec version {codec_version}, expected {CODEC_VERSION}"
            )
        while reader.remaining:
            offset = reader.offset
            payload_len, crc, seq = reader.unpack(_FRAME, "frame header")
            if payload_len > MAX_PAYLOAD:
                raise WalCorruptionError(
                    f"{path.name}: implausible payload length {payload_len} "
                    f"at offset {offset}"
                )
            payload = reader.take(payload_len, "payload")
            if _crc(seq, payload) != crc:
                raise WalCorruptionError(
                    f"{path.name}: CRC mismatch for seq {seq} at offset {offset}"
                )
            if last_seq is not None and seq <= last_seq:
                raise WalCorruptionError(
                    f"{path.name}: sequence regression {last_seq} -> {seq}"
                )
            if seq < first_seq:
                raise WalCorruptionError(
                    f"{path.name}: seq {seq} below segment first_seq {first_seq}"
                )
            result.records.append(WalRecord(seq, payload))
            last_seq = seq
    except _Truncated as exc:
        if not is_last:
            raise WalCorruptionError(
                f"{path.name}: {exc} in non-final segment"
            ) from None
        result.torn_tail = True
    return last_seq


def read_wal(directory: Path) -> WalReadResult:
    """Scan every segment in order, enforcing the torn-tail contract.

    Gaps *between* segments are legal (retention pruning removes covered
    segments; post-recovery the log resumes in a fresh segment past a
    checkpoint), but sequence numbers must stay strictly increasing.
    """
    result = WalReadResult()
    segments = list_segments(Path(directory))
    last_seq: Optional[int] = None
    for index, path in enumerate(segments):
        last_seq = _read_segment(
            path, index == len(segments) - 1, result, last_seq
        )
    return result


class WriteAheadLog:
    """Append side of the log.

    Opening always starts a *fresh* segment at ``start_seq`` (recovery
    computes that as its resume point); prior segments are never appended
    to, so a torn tail left by a crash is sealed in place rather than
    overwritten, and the reader's last-segment tolerance still applies to
    the new active segment.

    Framed records wait in ``_tail`` (a ``bytearray``) until the next
    ``sync`` / ``flush`` / rotation / ``close`` writes it out, unbuffered,
    in one call; rotation bounds the tail by ``segment_bytes``.
    """

    def __init__(
        self,
        directory: Path,
        *,
        start_seq: int = 0,
        fsync: str = "batch",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if fsync not in ("always", "batch", "never"):
            raise ValueError(f"unknown fsync policy {fsync!r} (always|batch|never)")
        if segment_bytes < _HEADER.size + _FRAME.size:
            raise ValueError("segment_bytes too small to hold a record")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self._metrics = metrics
        self._fsync_counter = (
            metrics.counter("durability/wal_fsync_total") if metrics else None
        )
        self._next_seq = start_seq
        self._file: Optional[FileIO] = None
        self._tail = bytearray()
        self._active: Optional[Path] = None
        self._active_bytes = 0
        self._dirty = False
        self._closed = False
        self._open_segment(start_seq)

    # -- segment lifecycle ---------------------------------------------------

    def _open_segment(self, first_seq: int) -> None:
        path = segment_path(self.directory, first_seq)
        if path.exists():
            # A crash directly after rotation can leave a same-named segment
            # holding only torn bytes past the recovery point; replace it.
            path.unlink()
        self._file = open(path, "wb", buffering=0)
        self._tail += _HEADER.pack(WAL_MAGIC, WAL_VERSION, CODEC_VERSION, first_seq)
        self._active = path
        self._active_bytes = _HEADER.size
        self._dirty = True

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def active_segment(self) -> Path:
        assert self._active is not None
        return self._active

    # -- appending -----------------------------------------------------------

    @property
    def buffered_bytes(self) -> int:
        """Bytes appended but not yet handed to the OS."""
        return len(self._tail)

    def append(self, payload: bytes) -> int:
        """Frame one record into the tail; returns its sequence number."""
        if self._closed:
            raise DurabilityError("append to a closed WAL")
        size = len(payload)
        if size > MAX_PAYLOAD:
            raise DurabilityError(f"payload of {size} bytes exceeds bound")
        seq = self._next_seq
        self._next_seq = seq + 1
        tail = self._tail
        tail += _FRAME.pack(size, _crc(seq, payload), seq)
        tail += payload
        self._active_bytes += _FRAME_SIZE + size
        self._dirty = True
        if self.fsync_policy == "always":
            self._fsync()
        if self._active_bytes >= self.segment_bytes:
            self._rotate()
        return seq

    def _write_tail(self) -> None:
        """Hand the tail to the OS in one ``write`` and empty it."""
        tail = self._tail
        if not tail:
            return
        assert self._file is not None
        with memoryview(tail) as view:
            done = self._file.write(view)
            while done < len(view):  # a short write is legal, if rare
                done += self._file.write(view[done:])
        tail.clear()

    def _rotate(self) -> None:
        self._seal_active()
        self._open_segment(self._next_seq)

    def _seal_active(self) -> None:
        assert self._file is not None
        self._write_tail()
        if self.fsync_policy != "never" and self._dirty:
            os.fsync(self._file.fileno())
            self._count_fsync()
        self._file.close()
        self._dirty = False

    def _fsync(self) -> None:
        assert self._file is not None
        self._write_tail()
        os.fsync(self._file.fileno())
        self._dirty = False
        self._count_fsync()

    def _count_fsync(self) -> None:
        if self._fsync_counter is not None:
            self._fsync_counter.inc()

    def flush(self) -> None:
        """Hand the tail to the OS without forcing it to media (what a
        crashed process would have left behind at best)."""
        if not self._closed:
            self._write_tail()

    def sync(self) -> None:
        """Durability barrier: everything appended so far reaches media.
        Under ``batch`` this is the per-micro-batch call; ``never`` keeps
        even explicit syncs as plain flushes."""
        if self._closed:
            return
        if self.fsync_policy == "never":
            self.flush()
        elif self._dirty:
            self._fsync()

    # -- retention -----------------------------------------------------------

    def prune(self, upto_seq: int) -> List[Path]:
        """Delete closed segments whose every record is below ``upto_seq``
        (i.e. fully covered by a checkpoint).  A segment is covered iff the
        *next* segment starts at or below ``upto_seq``; the active segment
        is never deleted."""
        segments = list_segments(self.directory)
        removed: List[Path] = []
        for path, successor in zip(segments, segments[1:]):
            if path == self._active:
                break
            successor_first = int(successor.name[4:-len(SEGMENT_SUFFIX)])
            if successor_first <= upto_seq:
                path.unlink()
                removed.append(path)
            else:
                break
        return removed

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._seal_active()
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
