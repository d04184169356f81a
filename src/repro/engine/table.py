"""Base relations R(A, B) and S(B, C) and their indexes.

The paper's experimental setup keeps two synthetic tables, "each ... indexed
by standard B-trees": the join strategies probe ``S(B)`` (band joins) and the
composite ``S(B, C)`` (select-joins), and symmetric processing of incoming
S-tuples uses the mirrored indexes on R.  Rows are immutable value objects
with surrogate ids so that streams can delete specific tuples.

A table keeps two kinds of index.  The **B+-trees** ``by_b``, ``by_ba``
(R) and ``by_bc`` (S) serve the per-event ``process_r`` / ``process_s``,
the references the batch kernels are checked against.  The **sorted
columns** serve the batch kernels: ``col_b`` is a sorted ``array('d')`` of
B and the rows in that order; ``cols_ba`` (R) / ``cols_bc`` (S) map a join
key B to a sorted ``array('d')`` of the second key and the rows in that
order, dropping a bucket that empties.  A column write is a ``bisect`` and
a memmove, with no tree surgery.  Equal keys keep insertion order in both.

Every index is **built on first read**, by a stable sort of the rows (a
dict keeps insertion order), and from then on :meth:`insert` and
:meth:`delete` keep it.  So a row write pays only for the indexes someone
has read: the sharded runtime never builds a tree, and a select-only
stream never builds the band joins' ``col_b``.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, ClassVar, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.dstruct.btree import DEFAULT_ORDER, BPlusTree


@dataclass(frozen=True, slots=True)
class RTuple:
    """A row of R(A, B): ``a`` is the local-selection attribute, ``b`` the
    join attribute."""

    rid: int
    a: float
    b: float


@dataclass(frozen=True, slots=True)
class STuple:
    """A row of S(B, C): ``b`` is the join attribute, ``c`` the
    local-selection attribute."""

    sid: int
    b: float
    c: float


Row = TypeVar("Row", RTuple, STuple)
#: The key of a row in one index.
IndexKey = Callable[[Any], Any]
#: A sorted key column and the rows in the same order.
Column = Tuple["array[float]", List[Row]]

_B: IndexKey = attrgetter("b")


def _put(keys: array[float], rows: List[Any], key: float, row: Any) -> None:
    """Insert ``row`` under ``key`` after every equal key."""
    at = bisect_right(keys, key)
    keys.insert(at, key)
    rows.insert(at, row)


def _take(keys: array[float], rows: List[Any], key: float, row: Any) -> None:
    """Remove the object ``row`` from its run of entries equal to ``key``."""
    at = bisect_left(keys, key)
    while rows[at] is not row:
        at += 1
    del keys[at]
    del rows[at]


class _Table(Generic[Row]):
    """What R and S share: the rows by surrogate id, the indexes on B, and
    the upkeep of every index a read has built."""

    #: The surrogate-id attribute of a row.
    _ID: ClassVar[str]

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        self._order = order
        self._rows: Dict[int, Row] = {}
        self._ids = itertools.count()
        self._row_id: IndexKey = attrgetter(self._ID)
        # name -> (insert(row), delete(row)) of every index built so far;
        # the index itself is its cached_property's entry in __dict__.
        self._built: Dict[str, Tuple[Callable[[Row], None], ...]] = {}

    def _sorted(self, key: IndexKey) -> List[Row]:
        """The rows stable-sorted on ``key``: equal keys in insertion order."""
        return sorted(self._rows.values(), key=key)

    def _tree(self, name: str, key: IndexKey) -> BPlusTree[Row]:
        tree: BPlusTree[Row] = BPlusTree(self._order)
        for row in self._sorted(key):
            tree.insert(key(row), row)
        self._built[name] = (
            lambda row: tree.insert(key(row), row), lambda row: tree.remove(key(row), row)
        )
        return tree

    def _keyed_columns(self, name: str, second: str) -> Dict[float, Column[Row]]:
        x_of: IndexKey = attrgetter(second)
        cols: Dict[float, Column[Row]] = {}
        for row in self._sorted(attrgetter("b", second)):
            keys, rows = cols.setdefault(row.b, (array("d"), []))
            keys.append(x_of(row))
            rows.append(row)

        def insert(row: Row) -> None:
            keys, rows = cols.get(row.b) or cols.setdefault(row.b, (array("d"), []))
            _put(keys, rows, x_of(row), row)

        def delete(row: Row) -> None:
            keys, rows = cols[row.b]
            _take(keys, rows, x_of(row), row)
            if not rows:
                del cols[row.b]

        self._built[name] = (insert, delete)
        return cols

    @cached_property
    def by_b(self) -> BPlusTree[Row]:
        """The B-tree on the join attribute B (the band joins' per-event
        probe)."""
        return self._tree("by_b", _B)

    @cached_property
    def col_b(self) -> Column[Row]:
        """The sorted column of B and the rows in that order (the band
        kernel's and the scattered band scans' probe)."""
        rows = self._sorted(_B)
        keys: array[float] = array("d", [row.b for row in rows])
        self._built["col_b"] = (
            lambda row: _put(keys, rows, row.b, row), lambda row: _take(keys, rows, row.b, row)
        )
        return keys, rows

    def built_indexes(self) -> Dict[str, BPlusTree[Row]]:
        """Every B+-tree built so far, by name; builds none."""
        return {name: vars(self)[name] for name in self._built if name.startswith("by_")}

    def built_columns(self) -> Dict[str, Any]:
        """Every sorted column built so far, by name; builds none."""
        return {name: vars(self)[name] for name in self._built if name.startswith("col")}

    def _write(self, row: Row, deleting: bool) -> None:
        """Apply every built index's insert (or delete) to ``row``.  A
        writer that raises --- an ``array`` refuses to resize while a
        buffer view of it is alive (``BufferError``) --- makes the table
        forget every index, so the next read of each builds it from the
        rows again: an index is never left stale."""
        try:
            for writers in self._built.values():
                writers[deleting](row)
        except BaseException:
            for name in self._built:
                del self.__dict__[name]  # the cached_property entry
            self._built.clear()
            raise

    def insert(self, row: Row) -> None:
        row_id = self._row_id(row)
        if row_id in self._rows:
            raise ValueError(f"duplicate {self._ID} {row_id}")
        self._rows[row_id] = row
        self._write(row, False)

    def delete(self, row: Row) -> None:
        """Delete the stored row with ``row``'s id, which must equal
        ``row`` (``is``, then ``==``: a row decoded from a frame or a log
        is a new object); else raise ``KeyError`` and change nothing."""
        row_id = self._row_id(row)
        stored = self._rows.get(row_id)
        if stored is None or (stored is not row and stored != row):
            raise KeyError(row_id)
        del self._rows[row_id]
        self._write(stored, True)

    def get(self, row_id: int) -> Optional[Row]:
        return self._rows.get(row_id)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def scan_by_b(self) -> Iterator[Row]:
        """All rows in increasing B order (BJ-MJ's sorted scan)."""
        for __, row in self.by_b.items():
            yield row

    def joining(self, b: float) -> List[Row]:
        """All rows with exactly this join-attribute value."""
        return self.by_b.get_all(b)


class TableS(_Table[STuple]):
    """S(B, C): B-trees on B and on (B, C), and the matching columns."""

    _ID = "sid"

    @cached_property
    def by_bc(self) -> BPlusTree[STuple]:
        """The composite B-tree on (B, C) (the select-joins' per-event
        probe)."""
        return self._tree("by_bc", attrgetter("b", "c"))

    @cached_property
    def cols_bc(self) -> Dict[float, Column[STuple]]:
        """Join key B -> (sorted column of C, the rows in that order): the
        select kernel's probe for R arrivals."""
        return self._keyed_columns("cols_bc", "c")

    def new_row(self, b: float, c: float) -> STuple:
        """Create (but do not insert) a row with a fresh surrogate id."""
        return STuple(next(self._ids), b, c)

    def add(self, b: float, c: float) -> STuple:
        row = self.new_row(b, c)
        self.insert(row)
        return row


class TableR(_Table[RTuple]):
    """R(A, B): B-trees on B and on (B, A), and the matching columns.

    Mirrors :class:`TableS` so that incoming S-tuples can be processed
    symmetrically ("the case in which a new S-tuple arrives is symmetric").
    """

    _ID = "rid"

    @cached_property
    def by_ba(self) -> BPlusTree[RTuple]:
        """The composite B-tree on (B, A) (S arrivals' per-event
        select-join probe)."""
        return self._tree("by_ba", attrgetter("b", "a"))

    @cached_property
    def cols_ba(self) -> Dict[float, Column[RTuple]]:
        """Join key B -> (sorted column of A, the rows in that order): the
        select kernel's probe for S arrivals."""
        return self._keyed_columns("cols_ba", "a")

    def new_row(self, a: float, b: float) -> RTuple:
        return RTuple(next(self._ids), a, b)

    def add(self, a: float, b: float) -> RTuple:
        row = self.new_row(a, b)
        self.insert(row)
        return row
