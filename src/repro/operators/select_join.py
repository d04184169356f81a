"""Continuous equality-join-with-local-selections strategies (Section 3.2).

Queries have the form ``sigma_{A in rangeA_i} R JOIN_{R.B=S.B}
sigma_{C in rangeC_i} S`` and are viewed as rectangles
``rangeC_i x rangeA_i`` in the product space S.C x R.A (Figure 5).  For an
incoming R-tuple ``r``, the join result points all lie on the line
``R.A = r.a``; a query is affected iff its rectangle covers one of them.

Strategies (Theorem 4 running times; n queries, m = |S|, m' joining tuples,
n' queries passing the R.A selection, g(n) = 2D stabbing cost, k = output):

* :class:`SJNaive`       — join first, then test every query against the
  ordered intermediate result: O(log m + n log m' + k).
* :class:`SJJoinFirst`   — join first, then one R-tree point stab per join
  result tuple: O(log m + m' g(n) + k).
* :class:`SJSelectFirst` — find queries passing the R.A selection first,
  then one composite-index scan per candidate: O(log n + n' log m + k).
* :class:`SJSSI`         — the paper's contribution: per stabbing group one
  composite B-tree probe plus one test of the group's members at the two
  join result points next to its stabbing point:
  O(tau (log m + g(n)) + k).

All strategies support the symmetric arrival of S-tuples; SJ-SSI keeps the
"corresponding SSI constructed on rangeA" the paper calls for.
"""

from __future__ import annotations

import bisect
from math import nan
from typing import Dict, List, Optional, Sequence

from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.partition_base import DynamicStabbingPartitionBase
from repro.core.ssi import StabbingSetIndex
from repro.dstruct.btree import BPlusTree, Cursor
from repro.dstruct.interval_tree import IntervalTree
from repro.dstruct.rtree import RTree
from repro.engine.queries import (
    SelectJoinQuery,
    range_a_interval,
    range_c_interval,
    register_queries,
    unregister_queries,
)
from repro.engine.table import RTuple, STuple, TableR, TableS
from repro.fastpath import select as select_probe

SelectResults = Dict[SelectJoinQuery, List[STuple]]
RSelectResults = Dict[SelectJoinQuery, List[RTuple]]


class SelectJoinStrategy:
    """Interface shared by all select-join processing strategies."""

    name: str = "abstract"

    def __init__(self, table_s: TableS, table_r: Optional[TableR] = None):
        self.table_s = table_s
        self.table_r = table_r if table_r is not None else TableR()
        self._queries: Dict[int, SelectJoinQuery] = {}

    def add_query(self, *queries: SelectJoinQuery) -> None:
        """Subscribe ``queries``; a qid already held, or repeated, raises
        ``ValueError`` and changes nothing."""
        register_queries(self._queries, queries)
        for query in queries:
            self._index_query(query)

    def remove_query(self, *queries: SelectJoinQuery) -> None:
        """Cancel ``queries``; a qid not held raises ``KeyError`` and
        changes nothing."""
        for query in unregister_queries(self._queries, queries):
            self._unindex_query(query)

    @property
    def query_count(self) -> int:
        return len(self._queries)

    @property
    def queries(self) -> List[SelectJoinQuery]:
        return list(self._queries.values())

    def process_r(self, r: RTuple) -> SelectResults:
        raise NotImplementedError

    def process_s(self, s: STuple) -> RSelectResults:
        raise NotImplementedError

    def _index_query(self, query: SelectJoinQuery) -> None:
        raise NotImplementedError

    def _unindex_query(self, query: SelectJoinQuery) -> None:
        raise NotImplementedError

    # -- shared probes -----------------------------------------------------

    def _joining_s(self, b: float) -> List[STuple]:
        """All S-tuples joining with join key ``b``, ordered by C."""
        out: List[STuple] = []
        cur = self.table_s.by_bc.cursor_ge((b,))
        while cur.valid and cur.key[0] == b:
            out.append(cur.value)
            cur.advance()
        return out

    def _joining_r(self, b: float) -> List[RTuple]:
        """All R-tuples joining with join key ``b``, ordered by A."""
        out: List[RTuple] = []
        cur = self.table_r.by_ba.cursor_ge((b,))
        while cur.valid and cur.key[0] == b:
            out.append(cur.value)
            cur.advance()
        return out


class SJNaive(SelectJoinStrategy):
    """NAIVE: materialize the C-ordered join result, then test every query."""

    name = "NAIVE"

    def _index_query(self, query: SelectJoinQuery) -> None:
        pass

    def _unindex_query(self, query: SelectJoinQuery) -> None:
        pass

    def process_r(self, r: RTuple) -> SelectResults:
        if not self._queries:
            return {}  # and S(B, C) stays unbuilt
        intermediate = self._joining_s(r.b)
        if not intermediate:
            return {}
        c_values = [s.c for s in intermediate]
        results: SelectResults = {}
        for query in self._queries.values():
            if not query.range_a.contains(r.a):
                continue
            lo = bisect.bisect_left(c_values, query.range_c.lo)
            hi = bisect.bisect_right(c_values, query.range_c.hi)
            if hi > lo:
                results[query] = intermediate[lo:hi]
        return results

    def process_s(self, s: STuple) -> RSelectResults:
        if not self._queries:
            return {}
        intermediate = self._joining_r(s.b)
        if not intermediate:
            return {}
        a_values = [r.a for r in intermediate]
        results: RSelectResults = {}
        for query in self._queries.values():
            if not query.range_c.contains(s.c):
                continue
            lo = bisect.bisect_left(a_values, query.range_a.lo)
            hi = bisect.bisect_right(a_values, query.range_a.hi)
            if hi > lo:
                results[query] = intermediate[lo:hi]
        return results


class SJJoinFirst(SelectJoinStrategy):
    """SJ-JoinFirst: join, then one 2D point-stabbing probe per join result."""

    name = "SJ-J"

    def __init__(self, table_s: TableS, table_r: Optional[TableR] = None, *, rtree_fanout: int = 16):
        super().__init__(table_s, table_r)
        self._rects: RTree[SelectJoinQuery] = RTree(rtree_fanout)

    def _index_query(self, query: SelectJoinQuery) -> None:
        self._rects.insert(query.rect, query)

    def _unindex_query(self, query: SelectJoinQuery) -> None:
        self._rects.remove(query.rect, query)

    def process_r(self, r: RTuple) -> SelectResults:
        results: SelectResults = {}
        if not self._queries:
            return results
        for s in self._joining_s(r.b):
            for __, query in self._rects.stab(s.c, r.a):
                results.setdefault(query, []).append(s)
        return results

    def process_s(self, s: STuple) -> RSelectResults:
        results: RSelectResults = {}
        if not self._queries:
            return results
        for r in self._joining_r(s.b):
            for __, query in self._rects.stab(s.c, r.a):
                results.setdefault(query, []).append(r)
        return results


class SJSelectFirst(SelectJoinStrategy):
    """SJ-SelectFirst: satisfy the local R.A selection first, then one
    composite-index range scan per candidate query."""

    name = "SJ-S"

    def __init__(self, table_s: TableS, table_r: Optional[TableR] = None):
        super().__init__(table_s, table_r)
        self._ranges_a: IntervalTree[SelectJoinQuery] = IntervalTree()
        self._ranges_c: IntervalTree[SelectJoinQuery] = IntervalTree()

    def _index_query(self, query: SelectJoinQuery) -> None:
        self._ranges_a.insert(query.range_a, query)
        self._ranges_c.insert(query.range_c, query)

    def _unindex_query(self, query: SelectJoinQuery) -> None:
        self._ranges_a.remove(query.range_a, query)
        self._ranges_c.remove(query.range_c, query)

    def process_r(self, r: RTuple) -> SelectResults:
        results: SelectResults = {}
        for __, query in self._ranges_a.iter_stab(r.a):
            cur = self.table_s.by_bc.cursor_ge((r.b, query.range_c.lo))
            hits = cur.collect_forward_prefix_le(r.b, query.range_c.hi) if cur.valid else []
            if hits:
                results[query] = hits
        return results

    def process_s(self, s: STuple) -> RSelectResults:
        results: RSelectResults = {}
        for __, query in self._ranges_c.iter_stab(s.c):
            cur = self.table_r.by_ba.cursor_ge((s.b, query.range_a.lo))
            hits = cur.collect_forward_prefix_le(s.b, query.range_a.hi) if cur.valid else []
            if hits:
                results[query] = hits
        return results


class SJSSI(SelectJoinStrategy):
    """SJ-SSI: SSIs on the selection ranges, endpoint columns per group.

    The R-side SSI partitions queries by their rangeC projections, the
    S-side one by rangeA; an arrival runs :func:`probe_select_group` once
    per group of the other side's SSI.
    """

    name = "SJ-SSI"

    def __init__(
        self,
        table_s: TableS,
        table_r: Optional[TableR] = None,
        *,
        partition_c: Optional[DynamicStabbingPartitionBase[SelectJoinQuery]] = None,
        partition_a: Optional[DynamicStabbingPartitionBase[SelectJoinQuery]] = None,
        epsilon: float = 1.0,
        symmetric: bool = True,
    ):
        super().__init__(table_s, table_r)
        if partition_c is None:
            partition_c = LazyStabbingPartition(epsilon=epsilon, interval_of=range_c_interval)
        self._ssi_c = _columns_ssi(partition_c, range_a_interval, range_c_interval)
        self._ssi_a: Optional[StabbingSetIndex[SelectJoinQuery, select_probe.SelectColumns]] = None
        if symmetric:
            if partition_a is None:
                partition_a = LazyStabbingPartition(epsilon=epsilon, interval_of=range_a_interval)
            self._ssi_a = _columns_ssi(partition_a, range_c_interval, range_a_interval)

    @property
    def ssi(self) -> StabbingSetIndex:
        return self._ssi_c

    @property
    def group_count(self) -> int:
        return self._ssi_c.group_count()

    def _index_query(self, query: SelectJoinQuery) -> None:
        self._ssi_c.insert(query)
        if self._ssi_a is not None:
            self._ssi_a.insert(query)

    def _unindex_query(self, query: SelectJoinQuery) -> None:
        self._ssi_c.delete(query)
        if self._ssi_a is not None:
            self._ssi_a.delete(query)

    def process_r(self, r: RTuple) -> SelectResults:
        results: SelectResults = {}
        for point, columns in self._ssi_c.groups():
            probe_select_group(self.table_s.by_bc, r.b, r.a, point, columns, results)
        return results

    def process_s(self, s: STuple) -> RSelectResults:
        if self._ssi_a is None:
            raise RuntimeError("symmetric processing disabled for this SJSSI")
        results: RSelectResults = {}
        for point, columns in self._ssi_a.groups():
            probe_select_group(self.table_r.by_ba, s.b, s.c, point, columns, results)
        return results

    def process_r_batch(self, rs: Sequence[RTuple]) -> List[SelectResults]:
        """Batch fast path: probe a run of R-tuples against the current S
        state in one pass over the rangeC group table.  Delta-identical to
        calling :meth:`process_r` per tuple (against unchanged tables)."""
        results: List[SelectResults] = [{} for _ in rs]
        if self._queries:
            points, groups = self._ssi_c.group_table()
            select_probe.batch_probe_select_r(self.table_s.cols_bc, rs, points, groups, results)
        return results

    def process_s_batch(self, ss: Sequence[STuple]) -> List[RSelectResults]:
        """Symmetric batch fast path for a run of S-tuples."""
        if self._ssi_a is None:
            raise RuntimeError("symmetric processing disabled for this SJSSI")
        results: List[RSelectResults] = [{} for _ in ss]
        if self._queries:
            points, groups = self._ssi_a.group_table()
            select_probe.batch_probe_select_s(self.table_r.cols_ba, ss, points, groups, results)
        return results

    def validate(self) -> None:
        """Check every group's columns against its members (tests, fuzz)."""
        for ssi, sel_of, rng_of in (
            (self._ssi_c, range_a_interval, range_c_interval),
            (self._ssi_a, range_c_interval, range_a_interval),
        ):
            if ssi is not None:
                ssi.validate(lambda group, columns: columns.check(group, sel_of, rng_of))


def _columns_ssi(
    partition: DynamicStabbingPartitionBase[SelectJoinQuery], sel_of, rng_of
) -> StabbingSetIndex[SelectJoinQuery, select_probe.SelectColumns]:
    """An SSI whose groups keep their members' endpoint columns."""
    return StabbingSetIndex(
        partition,
        make_structure=lambda members: select_probe.SelectColumns.of(members, sel_of, rng_of),
        add_item=lambda columns, q: columns.add(q, sel_of(q), rng_of(q)),
        remove_item=lambda columns, q: columns.remove(q, sel_of(q)),
    )


def probe_select_group(
    index: BPlusTree,
    b: float,
    x: float,
    point: float,
    columns: select_probe.SelectColumns,
    results: Dict[SelectJoinQuery, List],
) -> None:
    """The SJ-SSI per-group probe for an incoming tuple with join key ``b``
    and selection attribute ``x`` (r.a against S(B, C), s.c against R(B, A)).

    One composite B-tree lookup at (b, point) locates the joining tuples
    q1/q2 whose second components straddle the stabbing point, then one
    test of the group's endpoint columns at the corresponding join result
    points yields exactly the affected queries, whose hits go into
    ``results``.  Shared between :class:`SJSSI` (applied to every group)
    and the hotspot-based processor (applied to hotspot groups only).
    """
    pred, succ = index.surrounding((b, point))
    # NaN where no tuple with this join key lies on that side of the point.
    y1 = pred.key[1] if pred.valid and pred.key[0] == b else nan
    y2 = succ.key[1] if succ.valid and succ.key[0] == b else nan
    # Neither neighbour inside the group's extent: no member contains one.
    if not (y1 >= columns.rng_min or y2 <= columns.rng_max):
        return
    for slot in select_probe.stab_group(columns, x, y1, y2):
        hits = _enumerate_outward(pred, succ, b, columns.rng_lo[slot], columns.rng_hi[slot])
        assert hits, "affected select-join produced no result"
        results[columns.queries[slot]] = hits


def _enumerate_outward(pred: Cursor, succ: Cursor, b: float, lo: float, hi: float) -> List:
    """Walk the composite-index leaves outward from the adjacent cursor pair
    of ``surrounding``, collecting entries with matching join key and second
    component in [lo, hi]; stops at "a different S.B value or a value
    outside the query range".  Touches only contributing entries plus one
    terminator per direction, and moves neither cursor."""
    hits = pred.collect_backward_prefix_ge(b, lo) if pred.valid else []
    if succ.valid:
        hits.extend(succ.collect_forward_prefix_le(b, hi))
    return hits


def make_select_strategies(
    table_s: TableS,
    table_r: Optional[TableR] = None,
    *,
    epsilon: float = 1.0,
) -> Dict[str, SelectJoinStrategy]:
    """All four strategies over shared tables, keyed by their paper names."""
    return {
        "NAIVE": SJNaive(table_s, table_r),
        "SJ-J": SJJoinFirst(table_s, table_r),
        "SJ-S": SJSelectFirst(table_s, table_r),
        "SJ-SSI": SJSSI(table_s, table_r, epsilon=epsilon),
    }
