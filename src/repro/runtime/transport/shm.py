"""SPSC ring buffer over POSIX shared memory.

One ring carries framed records in one direction between exactly two
parties: a single producer process and a single consumer process.  The
pipeline owns a *request* ring (pipeline → worker) and a *response* ring
(worker → pipeline) per shard, so neither side ever contends with a peer
and no locks are needed — each counter has exactly one writer.

Layout (little-endian)::

    offset 0   u32  magic      "RING" — attach refuses foreign segments
    offset 4   u32  version    layout version, attach refuses mismatches
    offset 8   u64  capacity   data-region size in bytes
    offset 16  u64  head       bytes consumed (written by the consumer only)
    offset 24  u64  tail       bytes produced (written by the producer only)
    offset 32  ...  data       byte ring of ``capacity`` bytes

``head`` and ``tail`` are monotonically increasing byte counters (never
wrapped), so ``tail - head`` is the exact occupancy and the full/empty
ambiguity of wrapped indices never arises.  Each record is framed as
``[u32 length][u32 crc32][payload]`` where the CRC is seeded with the
length prefix — an all-zero header can therefore never self-validate as
an empty frame (``crc32(b"") == 0`` would otherwise make eight zero bytes
a valid record).  Payload bytes wrap around the data region byte-wise.
The producer writes the frame first and publishes ``tail`` last; the
consumer validates the CRC before advancing ``head``.

Each side keeps its *own* position in process memory and only publishes
it through the segment — the producer never reads back its own tail, the
consumer never reads back its own head.  Shared reads are therefore
limited to the peer's counter and the frame bytes, and both are treated
as untrusted: a peer-counter read that implies negative or
over-capacity occupancy is ignored and retried, and a frame that fails
validation is re-read for a short grace period before
:class:`FrameCorruptionError` is raised.  This matters in practice:
VM-backed hosts have been observed to serve transient zero pages on
shared mappings (reads that return zeros, then heal within a
millisecond) — with a naive layout those windows forge empty frames and
reset counters; with local positions and a length-seeded CRC they are
indistinguishable from "peer not ready yet" and simply retry.

Backpressure is block-with-deadline: ``send`` on a full ring spins
(yielding the CPU) until space frees or the deadline passes, then raises
:class:`RingTimeoutError` — frames are never dropped.  ``recv`` mirrors
the same wait and returns ``None`` on timeout so callers can interleave
liveness checks (is the peer process still alive?) with short waits.

Lifecycle: the creating side ``create()``\\ s and eventually ``unlink()``\\ s;
attaching sides ``attach()`` and only ``close()`` (see :meth:`ShmRing.attach`
for how :mod:`multiprocessing.resource_tracker` is handled).  ``close`` and
``unlink`` are both idempotent so crash-path teardown can call them
unconditionally.
"""

from __future__ import annotations

import struct
import time
import zlib
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from multiprocessing.synchronize import Semaphore

__all__ = [
    "TransportError",
    "RingTimeoutError",
    "FrameCorruptionError",
    "ShmRing",
]


class TransportError(Exception):
    """Base class for every shared-memory-transport failure."""


class RingTimeoutError(TransportError):
    """A blocking ring operation exceeded its deadline."""


class FrameCorruptionError(TransportError):
    """A framed record failed its CRC32 or length validation."""


_MAGIC = 0x52494E47  # "RING"
_LAYOUT_VERSION = 2  # v2: frame CRC is seeded with the length prefix

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_FRAME = struct.Struct("<II")  # payload length, crc32(length || payload)

_OFF_MAGIC = 0
_OFF_VERSION = 4
_OFF_CAPACITY = 8
_OFF_HEAD = 16
_OFF_TAIL = 24
_DATA = 32

#: Wait-loop backoff: one free yield, then exponentially growing sleeps.
#: Real sleeps matter more than spin latency here — ``sched_yield`` is
#: nearly a no-op under CFS, so a spinning waiter competes with the very
#: peer it is waiting for (ruinous on single-core hosts).  The ceiling
#: keeps worst-case wake-up latency well under a batch's compute time.
_WAIT_FLOOR = 50e-6
_WAIT_CEIL = 0.002

#: How long a consumer re-reads a frame that fails validation before
#: declaring it corrupt.  Transient zero-page reads heal within ~1ms;
#: genuine corruption stays broken and still fails loudly.
_CORRUPTION_GRACE = 0.05


def _frame_crc(payload: bytes) -> int:
    """CRC32 chained over the length prefix and the payload bytes."""
    return zlib.crc32(payload, zlib.crc32(_U32.pack(len(payload))))


class ShmRing:
    """A fixed-capacity SPSC byte ring over one shared-memory segment."""

    __slots__ = (
        "_shm",
        "_buf",
        "_capacity",
        "_owner",
        "_closed",
        "_next_tail",
        "_next_head",
        "_doorbell",
        "crc_retries",
    )

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        capacity: int,
        owner: bool,
        doorbell: Optional["Semaphore"] = None,
    ) -> None:
        self._shm = shm
        self._buf = shm.buf
        self._capacity = capacity
        self._owner = owner
        self._closed = False
        # Optional wake-up semaphore: the producer releases it after
        # publishing a frame, the consumer blocks on it instead of
        # sleep-polling.  Purely a wake hint — emptiness is always
        # re-checked against ``tail`` — so spurious or stale counts are
        # harmless.  It cuts consumer wake-up latency from the polling
        # backoff ceiling (~2ms) to a scheduler wake, which dominates the
        # per-batch round-trip on ping-pong workloads.
        self._doorbell = doorbell
        # This process's authoritative positions — published to, never
        # read back from, the segment (see the module docstring).  Ring
        # construction precedes any traffic in this transport's lifecycle,
        # so both shared counters are still zero here; same-process
        # loopback (one object sending to itself, handy in tests and
        # micro-benchmarks) works because the roles keep separate slots.
        # Each cursor has one writer method, so the ring needs no lock:
        # only ``send`` writes ``_next_tail``, only ``recv`` writes
        # ``_next_head`` and ``crc_retries``.
        self._next_tail = 0
        self._next_head = 0
        #: Re-reads ``recv`` made of a frame that did not validate yet.
        self.crc_retries = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        capacity: int,
        name: Optional[str] = None,
        doorbell: Optional["Semaphore"] = None,
    ) -> "ShmRing":
        """Create a fresh ring with a ``capacity``-byte data region."""
        if capacity < _FRAME.size + 1:
            raise ValueError(f"ring capacity {capacity} is too small")
        shm = shared_memory.SharedMemory(name=name, create=True, size=_DATA + capacity)
        _U32.pack_into(shm.buf, _OFF_MAGIC, _MAGIC)
        _U32.pack_into(shm.buf, _OFF_VERSION, _LAYOUT_VERSION)
        _U64.pack_into(shm.buf, _OFF_CAPACITY, capacity)
        _U64.pack_into(shm.buf, _OFF_HEAD, 0)
        _U64.pack_into(shm.buf, _OFF_TAIL, 0)
        return cls(shm, capacity, owner=True, doorbell=doorbell)

    @classmethod
    def attach(
        cls, name: str, doorbell: Optional["Semaphore"] = None
    ) -> "ShmRing":
        """Attach to an existing ring by segment name.

        Attaching re-registers the segment with the resource tracker
        (unavoidable before Python 3.13's ``track=False``).  Under the
        fork start method the tracker is shared with the creator, so the
        duplicate register is a set-idempotent no-op and the creator's
        ``unlink`` settles the books; unregistering here instead would
        erase the creator's own registration.  Under spawn the attaching
        process owns a separate tracker that unlinks at its exit — which
        in this transport's lifecycle coincides with the creator's
        teardown, whose ``unlink`` tolerates the already-removed segment.
        """
        shm = shared_memory.SharedMemory(name=name)
        (magic,) = _U32.unpack_from(shm.buf, _OFF_MAGIC)
        (version,) = _U32.unpack_from(shm.buf, _OFF_VERSION)
        if magic != _MAGIC:
            shm.close()
            raise TransportError(f"segment {name!r} is not a transport ring")
        if version != _LAYOUT_VERSION:
            shm.close()
            raise TransportError(
                f"ring {name!r} has layout version {version}, "
                f"expected {_LAYOUT_VERSION}"
            )
        (capacity,) = _U64.unpack_from(shm.buf, _OFF_CAPACITY)
        return cls(shm, capacity, owner=False, doorbell=doorbell)

    @property
    def name(self) -> str:
        """The segment name (pass to :meth:`attach` in the peer process)."""
        return self._shm.name

    @property
    def capacity(self) -> int:
        return self._capacity

    # -- counters ------------------------------------------------------------

    def _head(self) -> int:
        return int(_U64.unpack_from(self._buf, _OFF_HEAD)[0])

    def _tail(self) -> int:
        return int(_U64.unpack_from(self._buf, _OFF_TAIL)[0])

    def occupancy(self) -> int:
        """Bytes currently enqueued (frame headers included).

        Advisory — both counters are shared reads, so the result is
        clamped rather than trusted (see the module docstring).
        """
        return max(0, self._tail() - self._head())

    # -- byte-wise ring access -----------------------------------------------

    def _write(self, pos: int, data: bytes) -> None:
        off = pos % self._capacity
        first = min(len(data), self._capacity - off)
        self._buf[_DATA + off : _DATA + off + first] = data[:first]
        rest = len(data) - first
        if rest:
            self._buf[_DATA : _DATA + rest] = data[first:]

    def _read(self, pos: int, count: int) -> bytes:
        off = pos % self._capacity
        first = min(count, self._capacity - off)
        out = bytes(self._buf[_DATA + off : _DATA + off + first])
        rest = count - first
        if rest:
            out += bytes(self._buf[_DATA : _DATA + rest])
        return out

    @staticmethod
    def _wait(spins: int) -> None:
        if spins == 0:
            time.sleep(0.0)
            return
        time.sleep(min(_WAIT_FLOOR * (1 << min(spins - 1, 6)), _WAIT_CEIL))

    # -- producer side -------------------------------------------------------

    def send(self, payload: bytes, timeout: Optional[float] = None) -> None:
        """Enqueue one framed record, blocking while the ring is full.

        Raises :class:`RingTimeoutError` if ``timeout`` seconds pass
        without enough space freeing up; the frame is never dropped or
        truncated.
        """
        if self._closed:
            raise TransportError("send on a closed ring")
        need = _FRAME.size + len(payload)
        if need > self._capacity:
            raise TransportError(
                f"frame of {need} bytes exceeds ring capacity {self._capacity}"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        spins = 0
        tail = self._next_tail
        while True:
            head = self._head()
            # A sane head never exceeds our own tail and never implies
            # negative free space; anything else is a transient bad read
            # and is waited out exactly like a genuinely full ring.
            if head <= tail and tail - head <= self._capacity - need:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise RingTimeoutError(
                    f"ring {self.name!r} full for {timeout:.3f}s "
                    f"({self.occupancy()}/{self._capacity} bytes)"
                )
            self._wait(spins)
            spins += 1
        self._write(tail, _FRAME.pack(len(payload), _frame_crc(payload)))
        self._write(tail + _FRAME.size, payload)
        # Publish last: the consumer never sees a frame before its bytes.
        self._next_tail = tail + need
        _U64.pack_into(self._buf, _OFF_TAIL, self._next_tail)
        if self._doorbell is not None:
            self._doorbell.release()

    # -- consumer side -------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Dequeue one record; ``None`` if the ring stays empty past
        ``timeout`` (so callers can interleave peer-liveness checks).
        With ``timeout=None`` waits indefinitely.
        """
        if self._closed:
            raise TransportError("recv on a closed ring")
        deadline = None if timeout is None else time.monotonic() + timeout
        spins = 0
        head = self._next_head
        while self._tail() <= head:  # a transient zero read stays "empty"
            if deadline is not None and time.monotonic() >= deadline:
                return None
            if self._doorbell is not None:
                if deadline is None:
                    self._doorbell.acquire()
                else:
                    self._doorbell.acquire(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
            else:
                self._wait(spins)
                spins += 1
        grace: Optional[float] = None
        while True:
            length, crc = _FRAME.unpack(self._read(head, _FRAME.size))
            if _FRAME.size + length <= self._capacity:
                payload = self._read(head + _FRAME.size, length)
                if _frame_crc(payload) == crc:
                    break
            # Tail said a frame is here but its bytes do not validate:
            # either a transient bad read (heals in ~1ms) or genuine
            # corruption.  Re-read briefly before failing loudly.
            now = time.monotonic()
            if grace is None:
                grace = now + _CORRUPTION_GRACE
            elif now >= grace:
                raise FrameCorruptionError(
                    f"frame at ring offset {head} failed validation "
                    f"(length={length}) for {_CORRUPTION_GRACE:.3f}s"
                )
            self.crc_retries += 1
            time.sleep(_WAIT_FLOOR)
        self._next_head = head + _FRAME.size + length
        _U64.pack_into(self._buf, _OFF_HEAD, self._next_head)
        return payload

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release this process's mapping.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._buf = memoryview(b"")
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system.  Idempotent; safe after the
        peer crashed (missing segments are ignored)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self._owner:
            self.unlink()
