"""Continuous band-join processing strategies (Section 3.1).

All strategies answer the same question for an incoming R-tuple ``r``: which
of the registered band joins ``R JOIN S ON S.B - R.B IN rangeB_i`` gain new
result tuples, and what are they?  Each returns a dict mapping affected
queries to their new S-side matches.  The symmetric S-side arrival is also
supported (``process_s``).

Strategies (Theorem 3 running times for an incoming R-tuple; n = number of
queries, m = |S|, tau = stabbing number, k = output size):

* :class:`BJQOuter`   — queries as outer relation, one B-tree range scan per
  query: O(n log m + k).
* :class:`BJDOuter`   — data as outer relation, one interval-tree stab per
  S-tuple: O(m log n + k).
* :class:`BJMergeJoin`— merge join of the shifted windows with S in sorted
  order: O(m + n + k) (our active-window heap adds a log factor on the
  windows simultaneously open).
* :class:`BJSSI`      — the paper's contribution: one B-tree probe per
  stabbing group plus output-sensitive scans: O(tau log m + k).

Every strategy supports dynamic query insertion/deletion so the Figure 11
maintenance benchmark can replay identical subscription streams against all
of them.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.partition_base import DynamicStabbingPartitionBase
from repro.core.ssi import StabbingSetIndex
from repro.dstruct.btree import Cursor
from repro.dstruct.interval_tree import IntervalTree
from repro.dstruct.endpoint_orders import EndpointOrders
from repro.engine.queries import (
    BandJoinQuery,
    band_interval,
    register_queries,
    unregister_queries,
)
from repro.engine.table import RTuple, STuple, TableR, TableS
from repro.fastpath import band as band_probe

BandResults = Dict[BandJoinQuery, List[STuple]]
RBandResults = Dict[BandJoinQuery, List[RTuple]]


class BandJoinStrategy:
    """Interface shared by all band-join processing strategies."""

    name: str = "abstract"

    def __init__(self, table_s: TableS, table_r: Optional[TableR] = None):
        self.table_s = table_s
        self.table_r = table_r if table_r is not None else TableR()
        self._queries: Dict[int, BandJoinQuery] = {}

    def add_query(self, *queries: BandJoinQuery) -> None:
        """Subscribe ``queries``; a qid already held, or repeated, raises
        ``ValueError`` and changes nothing."""
        register_queries(self._queries, queries)
        for query in queries:
            self._index_query(query)

    def remove_query(self, *queries: BandJoinQuery) -> None:
        """Cancel ``queries``; a qid not held raises ``KeyError`` and
        changes nothing."""
        for query in unregister_queries(self._queries, queries):
            self._unindex_query(query)

    @property
    def query_count(self) -> int:
        return len(self._queries)

    @property
    def queries(self) -> List[BandJoinQuery]:
        return list(self._queries.values())

    def process_r(self, r: RTuple) -> BandResults:
        """New results caused by the arrival of an R-tuple."""
        raise NotImplementedError

    def process_s(self, s: STuple) -> RBandResults:
        """New results caused by the arrival of an S-tuple (symmetric)."""
        raise NotImplementedError

    def _index_query(self, query: BandJoinQuery) -> None:
        raise NotImplementedError

    def _unindex_query(self, query: BandJoinQuery) -> None:
        raise NotImplementedError


class BJQOuter(BandJoinStrategy):
    """BJ-QOuter: iterate queries, one ordered-index range scan each."""

    name = "BJ-Q"

    def _index_query(self, query: BandJoinQuery) -> None:
        pass  # the query registry is the whole structure

    def _unindex_query(self, query: BandJoinQuery) -> None:
        pass

    def process_r(self, r: RTuple) -> BandResults:
        results: BandResults = {}
        for query in self._queries.values():
            window = query.s_window(r)
            hits = self.table_s.by_b.range_values(window.lo, window.hi)
            if hits:
                results[query] = hits
        return results

    def process_s(self, s: STuple) -> RBandResults:
        results: RBandResults = {}
        for query in self._queries.values():
            window = query.r_window(s)
            hits = self.table_r.by_b.range_values(window.lo, window.hi)
            if hits:
                results[query] = hits
        return results


class BJDOuter(BandJoinStrategy):
    """BJ-DOuter: iterate data, one interval-tree stabbing query each."""

    name = "BJ-D"

    def __init__(self, table_s: TableS, table_r: Optional[TableR] = None):
        super().__init__(table_s, table_r)
        self._bands: IntervalTree[BandJoinQuery] = IntervalTree()

    def _index_query(self, query: BandJoinQuery) -> None:
        self._bands.insert(query.band, query)

    def _unindex_query(self, query: BandJoinQuery) -> None:
        self._bands.remove(query.band, query)

    def process_r(self, r: RTuple) -> BandResults:
        results: BandResults = {}
        if not self._queries:
            return results  # and S(B) stays unbuilt
        for s in self.table_s.scan_by_b():
            for __, query in self._bands.iter_stab(s.b - r.b):
                results.setdefault(query, []).append(s)
        return results

    def process_s(self, s: STuple) -> RBandResults:
        results: RBandResults = {}
        if not self._queries:
            return results
        for r in self.table_r.scan_by_b():
            for __, query in self._bands.iter_stab(s.b - r.b):
                results.setdefault(query, []).append(r)
        return results


class BJMergeJoin(BandJoinStrategy):
    """BJ-MJ: merge the windows (sorted by left endpoint) with sorted S."""

    name = "BJ-MJ"

    def __init__(self, table_s: TableS, table_r: Optional[TableR] = None):
        super().__init__(table_s, table_r)
        self._orders: EndpointOrders[BandJoinQuery] = EndpointOrders()

    def _index_query(self, query: BandJoinQuery) -> None:
        self._orders.add(query, query.band)

    def _unindex_query(self, query: BandJoinQuery) -> None:
        self._orders.remove(query, query.band)

    def process_r(self, r: RTuple) -> BandResults:
        results: BandResults = {}
        if not self._queries:
            return results
        by_lo = self._orders.by_lo
        lo_keys = self._orders.lo_keys
        hi_by_lo = self._orders.hi_by_lo
        idx = 0
        n = len(by_lo)
        # Active windows currently containing the sweep point, keyed by
        # right endpoint so expired windows pop cheaply.
        active: List = []
        for __, s in self.table_s.by_b.items():
            point = s.b - r.b
            while idx < n and lo_keys[idx] <= point:
                query = by_lo[idx]
                heapq.heappush(active, (hi_by_lo[idx], query.qid, query))
                idx += 1
            while active and active[0][0] < point:
                heapq.heappop(active)
            for __, __, query in active:
                results.setdefault(query, []).append(s)
        return results

    def process_s(self, s: STuple) -> RBandResults:
        # Symmetric sweep: as r.b increases the probe point s.b - r.b
        # decreases, so windows enter in descending-right-endpoint order and
        # expire once their left endpoint exceeds the point.
        results: RBandResults = {}
        if not self._queries:
            return results
        by_hi_desc = self._orders.by_hi_desc
        neg_hi_keys = self._orders.neg_hi_keys
        lo_by_hi = self._orders.lo_by_hi
        idx = 0
        n = len(by_hi_desc)
        active: List = []
        for __, r in self.table_r.by_b.items():
            point = s.b - r.b
            while idx < n and -neg_hi_keys[idx] >= point:
                query = by_hi_desc[idx]
                heapq.heappush(active, (-lo_by_hi[idx], query.qid, query))
                idx += 1
            while active and -active[0][0] > point:
                heapq.heappop(active)
            for __, __, query in active:
                results.setdefault(query, []).append(r)
        return results


class BJSSI(BandJoinStrategy):
    """BJ-SSI: one B-tree probe per stabbing group, output-sensitive scans.

    For each group with stabbing point ``p_j`` the strategy looks up
    ``p_j + r.b`` in the B-tree on S(B), finds the adjacent entries s1/s2
    surrounding it, and scans the group's two endpoint orders only as far as
    the affected queries reach (STEP 1 of Section 3.1).  Result tuples are
    then produced by walking the B-tree leaves outward from the probe point
    (STEP 2), so no S-tuple is touched unless it joins.
    """

    name = "BJ-SSI"

    def __init__(
        self,
        table_s: TableS,
        table_r: Optional[TableR] = None,
        *,
        partition: Optional[DynamicStabbingPartitionBase[BandJoinQuery]] = None,
        epsilon: float = 1.0,
    ):
        super().__init__(table_s, table_r)
        if partition is None:
            partition = LazyStabbingPartition(epsilon=epsilon, interval_of=band_interval)
        self._ssi: StabbingSetIndex[BandJoinQuery, EndpointOrders[BandJoinQuery]] = (
            StabbingSetIndex(partition)
        )

    @property
    def ssi(self) -> StabbingSetIndex:
        return self._ssi

    @property
    def group_count(self) -> int:
        return self._ssi.group_count()

    def _index_query(self, query: BandJoinQuery) -> None:
        self._ssi.insert(query)

    def _unindex_query(self, query: BandJoinQuery) -> None:
        self._ssi.delete(query)

    def process_r(self, r: RTuple) -> BandResults:
        results: BandResults = {}
        for point, structure in self._ssi.groups():
            probe_band_group_r(self.table_s.by_b, r, point, structure, results)
        return results

    def process_s(self, s: STuple) -> RBandResults:
        """Symmetric processing of an S-tuple against the same SSI.

        A query is affected iff some r satisfies ``s.b - r.b in band``; with
        r1/r2 the R(B) entries surrounding ``s.b - p_j`` this mirrors STEP 1
        with the two endpoint orders swapping roles.
        """
        results: RBandResults = {}
        for point, structure in self._ssi.groups():
            probe_band_group_s(self.table_r.by_b, s, point, structure, results)
        return results

    def process_r_batch(
        self,
        rs: Sequence[RTuple],
        touched: Optional[Sequence[float]] = None,
        suspects: Optional[Dict[int, List[BandJoinQuery]]] = None,
    ) -> List[BandResults]:
        """Batch fast path: probe a run of R-tuples against the current S
        state in one pass over the group table.  Delta-identical to calling
        :meth:`process_r` per tuple (against unchanged tables).  Given the
        sorted join keys of ``touched`` S rows, each (row index, query)
        whose window holds one is appended to ``suspects``: the only hit
        lists a touched row can be in."""
        results: List[BandResults] = [{} for _ in rs]
        if self._queries:
            points, structures = self._ssi.group_table()
            band_probe.batch_probe_band_r(
                self.table_s.col_b, rs, points, structures, results, touched, suspects
            )
        return results

    def process_s_batch(
        self,
        ss: Sequence[STuple],
        touched: Optional[Sequence[float]] = None,
        suspects: Optional[Dict[int, List[BandJoinQuery]]] = None,
    ) -> List[RBandResults]:
        """Symmetric batch fast path for a run of S-tuples (``touched``:
        R's join keys)."""
        results: List[RBandResults] = [{} for _ in ss]
        if self._queries:
            points, structures = self._ssi.group_table()
            band_probe.batch_probe_band_s(
                self.table_r.col_b, ss, points, structures, results, touched, suspects
            )
        return results


def probe_band_group_r(
    by_b, r: RTuple, point: float, structure: EndpointOrders[BandJoinQuery], results: BandResults
) -> None:
    """The BJ-SSI per-group probe for an incoming R-tuple (STEPs 1 and 2 of
    Section 3.1).  Shared between :class:`BJSSI` (applied to every group)
    and the hotspot-based processor (applied to hotspot groups only)."""
    pred, succ = by_b.surrounding(point + r.b)
    if not pred.valid and not succ.valid:
        return  # S is empty
    affected: Dict[int, BandJoinQuery] = {}
    if pred.valid:
        bound = pred.key - r.b  # s1 - b
        for query in structure.by_lo:
            if query.band.lo > bound:
                break
            affected[query.qid] = query
    if succ.valid:
        bound = succ.key - r.b  # s2 - b
        for query in structure.by_hi_desc:
            if query.band.hi < bound:
                break
            affected.setdefault(query.qid, query)
    for query in affected.values():
        hits = _enumerate_window(pred, succ, query.s_window(r))
        assert hits, "affected band join produced no result"
        results[query] = hits


def probe_band_group_s(
    by_b, s: STuple, point: float, structure: EndpointOrders[BandJoinQuery], results: RBandResults
) -> None:
    """Symmetric per-group probe for an incoming S-tuple: with r1/r2 the
    R(B) entries surrounding ``s.b - p_j``, the two endpoint orders swap
    roles."""
    pred, succ = by_b.surrounding(s.b - point)
    if not pred.valid and not succ.valid:
        return
    affected: Dict[int, BandJoinQuery] = {}
    if pred.valid:
        bound = s.b - pred.key  # >= point; matched by hi >= bound
        for query in structure.by_hi_desc:
            if query.band.hi < bound:
                break
            affected[query.qid] = query
    if succ.valid:
        bound = s.b - succ.key  # <= point; matched by lo <= bound
        for query in structure.by_lo:
            if query.band.lo > bound:
                break
            affected.setdefault(query.qid, query)
    for query in affected.values():
        hits = _enumerate_window(pred, succ, query.r_window(s))
        assert hits, "affected band join produced no result"
        results[query] = hits


def _enumerate_window(pred: Cursor, succ: Cursor, window: Interval) -> List:
    """Walk the B-tree leaves outward from the probe point, collecting
    entries inside ``window``; touches only contributing entries (plus one
    terminator per direction)."""
    if succ.valid:
        left = succ.clone()
        left.retreat()
    else:
        left = pred
    hits = left.collect_backward_ge(window.lo) if left.valid else []
    if succ.valid:
        hits.extend(succ.collect_forward_le(window.hi))
    return hits


def make_band_strategies(
    table_s: TableS,
    table_r: Optional[TableR] = None,
    *,
    epsilon: float = 1.0,
) -> Dict[str, BandJoinStrategy]:
    """All four strategies over shared tables, keyed by their paper names."""
    return {
        "BJ-Q": BJQOuter(table_s, table_r),
        "BJ-D": BJDOuter(table_s, table_r),
        "BJ-MJ": BJMergeJoin(table_s, table_r),
        "BJ-SSI": BJSSI(table_s, table_r, epsilon=epsilon),
    }
