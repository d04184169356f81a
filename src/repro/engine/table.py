"""Base relations R(A, B) and S(B, C) with B-tree indexes.

The paper's experimental setup keeps two synthetic tables, "each ... indexed
by standard B-trees": the join strategies probe ``S(B)`` (band joins) and the
composite ``S(B, C)`` (select-joins), and symmetric processing of incoming
S-tuples uses the mirrored indexes on R.  Rows are immutable value objects
with surrogate ids so that streams can delete specific tuples.

Every index is **built on first read**.  A table starts with its rows in a
dict by id and no tree; the first read of ``by_b``, ``by_ba`` or ``by_bc``
builds that tree from the rows, and from then on :meth:`insert` and
:meth:`delete` keep it.  So a row write pays only for the indexes some
query has read: a select-only stream never builds the band joins' ``by_b``
on either relation, and the sharded runtime's shared S table and C-slices
each build the one index their plane probes.  Processors therefore read an
index only once they hold a query of the family that probes it.
"""

from __future__ import annotations

import itertools
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

_B: IndexKey = attrgetter("b")


class _Table(Generic[Row]):
    """What R and S share: the rows by surrogate id, the B-tree on B, and
    the upkeep of every index a read has built."""

    #: The surrogate-id attribute of a row.
    _ID: ClassVar[str]

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        self._order = order
        self._rows: Dict[int, Row] = {}
        self._ids = itertools.count()
        self._row_id: IndexKey = attrgetter(self._ID)
        # (name, tree, key) of every index built so far, in build order.
        self._built: List[Tuple[str, BPlusTree[Row], IndexKey]] = []

    def _build(self, name: str, key: IndexKey) -> BPlusTree[Row]:
        """The index ``name`` on ``key``, built from the rows.  The sort is
        stable over insertion order (a dict's), so equal keys sit in
        insertion order, as in a tree kept from the first row on."""
        tree: BPlusTree[Row] = BPlusTree(self._order)
        for row in sorted(self._rows.values(), key=key):
            tree.insert(key(row), row)
        self._built.append((name, tree, key))
        return tree

    @cached_property
    def by_b(self) -> BPlusTree[Row]:
        """The B-tree on the join attribute B (the band joins' probe)."""
        return self._build("by_b", _B)

    def built_indexes(self) -> Dict[str, BPlusTree[Row]]:
        """Every index built so far, by name; builds none."""
        return {name: tree for name, tree, __ in self._built}

    def insert(self, row: Row) -> None:
        row_id = self._row_id(row)
        if row_id in self._rows:
            raise ValueError(f"duplicate {self._ID} {row_id}")
        self._rows[row_id] = row
        for __, tree, key in self._built:
            tree.insert(key(row), row)

    def delete(self, row: Row) -> None:
        """Delete the stored row with ``row``'s id, which must equal
        ``row`` (``is``, then ``==``: a row decoded from a frame or a log
        is a new object); else raise ``KeyError`` and change nothing."""
        row_id = self._row_id(row)
        stored = self._rows.get(row_id)
        if stored is None or (stored is not row and stored != row):
            raise KeyError(row_id)
        del self._rows[row_id]
        for __, tree, key in self._built:
            tree.remove(key(stored), stored)

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
    """S(B, C) with a B-tree on B and a composite B-tree on (B, C)."""

    _ID = "sid"

    @cached_property
    def by_bc(self) -> BPlusTree[STuple]:
        """The composite B-tree on (B, C) (the select-joins' probe)."""
        return self._build("by_bc", attrgetter("b", "c"))

    def new_row(self, b: float, c: float) -> STuple:
        """Create (but do not insert) a row with a fresh surrogate id."""
        return STuple(next(self._ids), b, c)

    def add(self, b: float, c: float) -> STuple:
        row = self.new_row(b, c)
        self.insert(row)
        return row


class TableR(_Table[RTuple]):
    """R(A, B) with a B-tree on B and a composite B-tree on (B, A).

    Mirrors :class:`TableS` so that incoming S-tuples can be processed
    symmetrically ("the case in which a new S-tuple arrives is symmetric").
    """

    _ID = "rid"

    @cached_property
    def by_ba(self) -> BPlusTree[RTuple]:
        """The composite B-tree on (B, A) (S arrivals' select-join probe)."""
        return self._build("by_ba", attrgetter("b", "a"))

    def new_row(self, a: float, b: float) -> RTuple:
        return RTuple(next(self._ids), a, b)

    def add(self, a: float, b: float) -> RTuple:
        row = self.new_row(a, b)
        self.insert(row)
        return row
