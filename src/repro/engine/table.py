"""Base relations R(A, B) and S(B, C) with B-tree indexes.

The paper's experimental setup keeps two synthetic tables, "each ... indexed
by standard B-trees": the join strategies probe ``S(B)`` (band joins) and the
composite ``S(B, C)`` (select-joins), and symmetric processing of incoming
S-tuples uses the mirrored indexes on R.  Rows are immutable value objects
with surrogate ids so that streams can delete specific tuples.

Which table holds which index follows from who reads it.  A standalone
:class:`TableS` (and :class:`~repro.engine.system.ContinuousQuerySystem`'s,
which serves both join families) keeps both S indexes.  The sharded
runtime splits S by role, so each of its tables keeps one:
:class:`~repro.runtime.sharding.ShardGroup`'s shared S table only
``by_b`` (the band plane's probes), and each shard's C-slice only
``by_bc`` (the select plane's).  An index nobody probes would cost two
B+-tree writes per S row for nothing.  :class:`TableR` keeps both of its
indexes everywhere: its one table serves both planes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Dict, Iterator, Optional

from repro.dstruct.btree import BPlusTree


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


#: The indexes a :class:`TableS` can keep: ``by_b`` on B, which band-join
#: processors probe, and ``by_bc`` on (B, C), which select-join processors
#: probe.
S_INDEXES = frozenset({"by_b", "by_bc"})


class TableS:
    """S(B, C) with a B-tree on B and a composite B-tree on (B, C), or only
    the ones named in ``indexes`` (a subset of :data:`S_INDEXES`).  An
    index left out is not an attribute: reading it raises
    ``AttributeError``."""

    by_b: BPlusTree[STuple]
    by_bc: BPlusTree[STuple]

    def __init__(self, order: int = 64, indexes: Collection[str] = S_INDEXES):
        if not indexes or not S_INDEXES.issuperset(indexes):
            raise ValueError(
                f"indexes must be a non-empty subset of {sorted(S_INDEXES)}, "
                f"got {sorted(indexes)}"
            )
        self._keeps_b = "by_b" in indexes
        self._keeps_bc = "by_bc" in indexes
        if self._keeps_b:
            self.by_b = BPlusTree(order)
        if self._keeps_bc:
            self.by_bc = BPlusTree(order)
        self._rows: Dict[int, STuple] = {}
        self._ids = itertools.count()

    def new_row(self, b: float, c: float) -> STuple:
        """Create (but do not insert) a row with a fresh surrogate id."""
        return STuple(next(self._ids), b, c)

    def insert(self, row: STuple) -> None:
        if row.sid in self._rows:
            raise ValueError(f"duplicate sid {row.sid}")
        self._rows[row.sid] = row
        if self._keeps_b:
            self.by_b.insert(row.b, row)
        if self._keeps_bc:
            self.by_bc.insert((row.b, row.c), row)

    def add(self, b: float, c: float) -> STuple:
        row = self.new_row(b, c)
        self.insert(row)
        return row

    def delete(self, row: STuple) -> None:
        del self._rows[row.sid]
        if self._keeps_b:
            self.by_b.remove(row.b, row)
        if self._keeps_bc:
            self.by_bc.remove((row.b, row.c), row)

    def get(self, sid: int) -> Optional[STuple]:
        return self._rows.get(sid)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[STuple]:
        return iter(self._rows.values())

    def scan_by_b(self) -> Iterator[STuple]:
        """All rows in increasing B order (BJ-MJ's sorted scan)."""
        for __, row in self.by_b.items():
            yield row

    def joining(self, b: float) -> list:
        """All rows with exactly this join-attribute value."""
        return self.by_b.get_all(b)


class TableR:
    """R(A, B) with a B-tree on B and a composite B-tree on (B, A).

    Mirrors :class:`TableS` so that incoming S-tuples can be processed
    symmetrically ("the case in which a new S-tuple arrives is symmetric").
    """

    def __init__(self, order: int = 64):
        self.by_b: BPlusTree[RTuple] = BPlusTree(order)
        self.by_ba: BPlusTree[RTuple] = BPlusTree(order)
        self._rows: Dict[int, RTuple] = {}
        self._ids = itertools.count()

    def new_row(self, a: float, b: float) -> RTuple:
        return RTuple(next(self._ids), a, b)

    def insert(self, row: RTuple) -> None:
        if row.rid in self._rows:
            raise ValueError(f"duplicate rid {row.rid}")
        self._rows[row.rid] = row
        self.by_b.insert(row.b, row)
        self.by_ba.insert((row.b, row.a), row)

    def add(self, a: float, b: float) -> RTuple:
        row = self.new_row(a, b)
        self.insert(row)
        return row

    def delete(self, row: RTuple) -> None:
        del self._rows[row.rid]
        self.by_b.remove(row.b, row)
        self.by_ba.remove((row.b, row.a), row)

    def get(self, rid: int) -> Optional[RTuple]:
        return self._rows.get(rid)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[RTuple]:
        return iter(self._rows.values())

    def scan_by_b(self) -> Iterator[RTuple]:
        for __, row in self.by_b.items():
            yield row

    def joining(self, b: float) -> list:
        return self.by_b.get_all(b)
