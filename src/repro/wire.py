"""The one wire layer under the WAL and the shard frames.

Everything the runtime turns into bytes — a WAL record, a checkpoint
snapshot, the query section of a BATCH frame, the row table of a RESULT
frame — is built from the three things defined here, and nothing here
knows which plane is asking:

* the **row primitive**: a table row is ``(id, x, y)`` under its relation
  (``rid, a, b`` for R; ``sid, b, c`` for S) — :data:`ROW_FIELDS` reads
  the triple off a row, :data:`ROW_TYPES` builds the row back, and
  :data:`ROW` is the one ``<Bqdd>`` record (caller's tag, then the triple);
* the **record table**: one tagged fixed-layout ``struct`` record per data
  event or subscription change (:func:`encode_event`, :func:`read_record`;
  the tag/layout table lives in ``docs/DURABILITY.md`` § Codec).
  Deliberately *not* pickle: pickle payloads execute code on load, change
  shape across refactors, and cannot be validated byte-by-byte;
* the **reader**: :class:`Reader`, a bounds-checked cursor constructed
  with the error class of its plane.  It is the only place that compares
  an offset with a length, and (:meth:`Reader.build`) the only place a
  ``struct.error``, ``ValueError`` or ``UnicodeDecodeError`` raised by a
  decoded value's constructor becomes that error — so "bytes that are not
  a valid frame raise ``FrameError``, bytes that are not a valid record
  raise :class:`CodecError`, nothing else escapes".

Rows are frozen dataclasses with value equality, so a row decoded from its
coordinates deletes the original from any table; queries are reconstructed
with their original explicit ``qid``, which is how the engine identifies
subscriptions across a restart or a process boundary.  ``UNSUB`` carries
only the qid — the consumer resolves it against its live subscriptions.

``CODEC_VERSION`` is stamped into every WAL segment header and checkpoint
header; readers refuse another version instead of misinterpreting it.
Dependency direction: ``durability → runtime → wire``, never back — this
module imports only ``struct``, ``core.intervals`` and ``engine`` types.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Tuple, Type, TypeVar, Union

from repro.core.intervals import Interval
from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.table import RTuple, STuple

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "DurabilityError",
    "Unsubscribe",
    "DecodedRecord",
    "ROW",
    "ROW_FIELDS",
    "ROW_TYPES",
    "Reader",
    "encode_event",
    "read_record",
    "decode_record",
    "decode_stream",
]

CODEC_VERSION = 1

_T = TypeVar("_T")


class DurabilityError(Exception):
    """Base class for every durability-subsystem failure (defined here
    because :class:`CodecError`, raised below that package, is one)."""


class CodecError(DurabilityError):
    """A persisted record does not match the wire format."""


class Reader:
    """A cursor over ``data`` that raises ``error`` instead of reading past
    the end, and (:meth:`build`) instead of letting a decoded value's own
    constructor refuse it."""

    __slots__ = ("data", "offset", "size", "error")

    def __init__(self, data: bytes, error: Type[Exception]) -> None:
        self.data = data
        self.offset = 0
        self.size = len(data)
        self.error = error

    def build(self, factory: Callable[..., _T], *args: Any) -> _T:
        """``factory(*args)`` over decoded fields; what it refuses (an
        inverted or NaN interval, non-UTF-8 text, bad JSON, an absurd
        column count) is malformed input, so it raises ``error``."""
        try:
            return factory(*args)
        except (struct.error, ValueError) as exc:
            raise self.error(
                f"malformed value before offset {self.offset}: {exc}"
            ) from None

    @property
    def remaining(self) -> int:
        return self.size - self.offset

    def _advance(self, size: int, what: str) -> int:
        start = self.offset
        if start + size > self.size:
            raise self.error(
                f"truncated {what} at offset {start}: "
                f"{self.size - start} of {size} byte(s)"
            )
        self.offset = start + size
        return start

    def peek(self, what: str) -> int:
        """The next byte, not consumed (a record's tag selects its layout)."""
        self.offset = start = self._advance(1, what)
        return self.data[start]

    def take(self, size: int, what: str) -> bytes:
        start = self._advance(size, what)
        return self.data[start : start + size]

    def unpack(self, layout: struct.Struct, what: str) -> Tuple[Any, ...]:
        return layout.unpack_from(self.data, self._advance(layout.size, what))

    def columns(self, layout: str, what: str) -> Tuple[Any, ...]:
        """Contiguous little-endian columns, flat: ``layout`` is a counted
        ``struct`` body such as ``"3q3d"`` (three int64, then three float64)."""
        layout = "<" + layout
        size = self.build(struct.calcsize, layout)
        return struct.unpack_from(layout, self.data, self._advance(size, what))

    def text(self, prefix: struct.Struct, what: str) -> str:
        """UTF-8 text behind a length of layout ``prefix``."""
        (size,) = self.unpack(prefix, what)
        return self.build(self.take(size, what).decode, "utf-8")

    def expect_end(self, what: str) -> None:
        if self.offset != self.size:
            raise self.error(f"{self.remaining} trailing byte(s) after {what}")


# -- rows --------------------------------------------------------------------

#: One row under a caller-chosen tag byte: ``tag, id, x, y``.
ROW = struct.Struct("<Bqdd")
#: Relation -> reader of a row's ``(id, x, y)``.
ROW_FIELDS: Dict[str, Callable[[Any], Tuple[int, float, float]]] = {
    "R": attrgetter("rid", "a", "b"),
    "S": attrgetter("sid", "b", "c"),
}
#: Relation -> row type, built positionally from ``(id, x, y)``.
ROW_TYPES: Dict[str, Callable[[int, float, float], Any]] = {"R": RTuple, "S": STuple}


# -- records -----------------------------------------------------------------

_SUB_SELECT = struct.Struct("<Bqdddd")
_UNSUB = struct.Struct("<Bq")

TAG_SUB_BAND = 5
TAG_SUB_SELECT = 6
TAG_UNSUB = 7
#: Relation -> (INSERT tag, DELETE tag, row fields) of its data events.
_DATA_TAGS = {"R": (1, 2, ROW_FIELDS["R"]), "S": (3, 4, ROW_FIELDS["S"])}
#: Data-event tag -> (kind, relation).
_DATA_EVENTS = {
    tag: (kind, relation)
    for relation, tags in _DATA_TAGS.items()
    for tag, kind in zip(tags, (EventKind.INSERT, EventKind.DELETE))
}
#: Record tag -> layout of the whole record, tag byte included.
_LAYOUTS = {
    **dict.fromkeys(_DATA_EVENTS, ROW),
    TAG_SUB_BAND: ROW,
    TAG_SUB_SELECT: _SUB_SELECT,
    TAG_UNSUB: _UNSUB,
}


@dataclass(frozen=True, slots=True)
class Unsubscribe:
    """A decoded subscription cancellation.

    The original query object does not cross a restart or a process
    boundary, so the consumer resolves ``qid`` against whatever
    subscription it currently holds under that id.
    """

    qid: int


DecodedRecord = Union[DataEvent, QueryEvent, Unsubscribe]


def encode_event(event: object) -> bytes:
    """Encode one pipeline event as a self-describing binary record."""
    if isinstance(event, DataEvent):
        insert_tag, delete_tag, fields = _DATA_TAGS[event.relation]
        tag = insert_tag if event.kind is EventKind.INSERT else delete_tag
        row_id, x, y = fields(event.row)
        return ROW.pack(tag, row_id, x, y)
    if isinstance(event, QueryEvent):
        query = event.query
        if event.kind is EventKind.DELETE:
            return _UNSUB.pack(TAG_UNSUB, query.qid)
        if isinstance(query, BandJoinQuery):
            return ROW.pack(TAG_SUB_BAND, query.qid, query.band.lo, query.band.hi)
        if isinstance(query, SelectJoinQuery):
            range_a, range_c = query.range_a, query.range_c
            return _SUB_SELECT.pack(
                TAG_SUB_SELECT, query.qid, range_a.lo, range_a.hi, range_c.lo, range_c.hi
            )
        raise CodecError(f"unsupported query type: {type(query).__name__}")
    raise CodecError(f"unsupported event type: {type(event).__name__}")


def read_record(reader: Reader) -> DecodedRecord:
    """Read the one record at the cursor, raising the reader's error."""
    tag = reader.peek("record tag")
    layout = _LAYOUTS.get(tag)
    if layout is None:
        raise reader.error(f"unknown record tag {tag} at offset {reader.offset}")
    fields = reader.unpack(layout, f"record (tag {tag})")[1:]
    data = _DATA_EVENTS.get(tag)
    if data is not None:
        kind, relation = data
        return DataEvent(kind, relation, ROW_TYPES[relation](*fields))
    if tag == TAG_UNSUB:
        return Unsubscribe(*fields)
    if tag == TAG_SUB_BAND:
        qid, lo, hi = fields
        query: Any = BandJoinQuery(reader.build(Interval, lo, hi), qid=qid)
    else:
        qid, a_lo, a_hi, c_lo, c_hi = fields
        query = SelectJoinQuery(
            reader.build(Interval, a_lo, a_hi), reader.build(Interval, c_lo, c_hi), qid=qid
        )
    return QueryEvent(EventKind.INSERT, query)


def decode_record(payload: bytes) -> DecodedRecord:
    """Decode one record payload back into an applicable event."""
    reader = Reader(payload, CodecError)
    record = read_record(reader)
    reader.expect_end("the record")
    return record


def decode_stream(data: bytes) -> List[DecodedRecord]:
    """Decode a back-to-back concatenation of records (checkpoint snapshot
    payload).  Raises :class:`CodecError` on any malformed or trailing
    bytes — snapshots are CRC-protected, so damage is never tolerated."""
    reader = Reader(data, CodecError)
    records: List[DecodedRecord] = []
    while reader.remaining:
        records.append(read_record(reader))
    return records
