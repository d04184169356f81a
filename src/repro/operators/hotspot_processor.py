"""Hotspot-based query processing (Section 2.2 applied to Section 3; Fig 9).

The "purist" SSI strategies apply group processing to *every* stabbing
group, paying per-group overhead even for tiny groups.  The hotspot-based
processors instead maintain a :class:`~repro.core.hotspot_tracker.
HotspotTracker` over the query ranges and

* run the SSI per-group probe only on the hotspot groups (at most 2/alpha of
  them, so O(alpha^-1 (log m + g(n)) + k) for the hotspot queries), and
* fall back to a traditional algorithm for the scattered remainder
  (SJ-SelectFirst for select-joins, a per-query window scan for band joins),

exactly the TRADITIONAL vs HOTSPOT-BASED comparison of Figure 9.  A
:class:`~repro.core.ssi.HotspotIndex` keeps the per-hotspot structures
(the members' endpoint columns for select-joins, the two endpoint orders
for band joins) and the scattered remainder; the select-join processor's
scatter/gather hooks keep its traditional structures of that remainder.

The select-join tracker is keyed on rangeC, and both of its batch paths
read it: an R arrival probes each hot group at its stabbing point
(SJ-SSI), and an S arrival, which selects on rangeC, skips every hot
group whose rangeC extent holds no arriving ``c`` and tests the members
of the rest (heavy-light: the hot groups are the heavy part on both
sides, the scattered columns the light part).  Each query has one set of
endpoint columns, its group's or the scattered ones.

``add_query`` and ``remove_query`` take any number of queries and make one
tracker call for all of them, so a batch's subscription changes cost one
rebalance per plane; each new query is classified hot or scattered after
that call.  Classification decides how a query's matches are found, never
which they are.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.ssi import HotspotIndex
from repro.dstruct.endpoint_orders import EndpointOrders
from repro.dstruct.interval_tree import IntervalTree
from repro.engine.queries import (
    BandJoinQuery,
    SelectJoinQuery,
    band_interval,
    range_a_interval,
    range_c_interval,
    register_queries,
    unregister_queries,
)
from repro.engine.table import RTuple, STuple, TableR, TableS
from repro.fastpath import band as band_probe
from repro.fastpath import select as select_probe
from repro.operators.band_join import (
    BandResults,
    RBandResults,
    probe_band_group_r,
    probe_band_group_s,
)
from repro.operators.select_join import (
    RSelectResults,
    SelectResults,
    probe_select_group,
)


class HotspotSelectJoinProcessor:
    """HOTSPOT-BASED select-join processing: SJ-SSI on the hotspots,
    SJ-SelectFirst on the scattered queries."""

    name = "HOTSPOT-BASED"

    def __init__(
        self,
        table_s: TableS,
        table_r: Optional[TableR] = None,
        *,
        alpha: float,
        epsilon: float = 1.0,
    ):
        self.table_s = table_s
        self.table_r = table_r if table_r is not None else TableR()
        self._queries: Dict[int, SelectJoinQuery] = {}
        # SelectFirst's rangeA tree over the scattered queries.  Only the
        # per-event process_r reads it, so that builds it on first use; from
        # then on it is kept in step with the scattered queries.
        self._scattered_a: Optional[IntervalTree[SelectJoinQuery]] = None
        # The scattered queries' endpoint columns for the batch probes, laid
        # out for R arrivals (select on rangeA, enumerate S by rangeC); S
        # arrivals read them, and the hot groups', with the roles swapped.
        self._columns_r = select_probe.SelectColumns()
        self.tracker: HotspotTracker[SelectJoinQuery] = HotspotTracker(
            alpha=alpha, epsilon=epsilon, interval_of=range_c_interval
        )
        # Each hotspot group's members, laid out as _columns_r.
        self._hot: HotspotIndex[SelectJoinQuery, select_probe.SelectColumns] = HotspotIndex(
            self.tracker,
            make_structure=lambda members: select_probe.SelectColumns.of(
                members, range_a_interval, range_c_interval
            ),
            add_item=lambda columns, q: columns.add(q, q.range_a, q.range_c),
            remove_item=lambda columns, q: columns.remove(q, q.range_a),
            scatter=self._scatter,
            gather=self._gather,
        )

    def _scatter(self, query: SelectJoinQuery) -> None:
        if self._scattered_a is not None:
            self._scattered_a.insert(query.range_a, query)
        self._columns_r.add(query, query.range_a, query.range_c)

    def _gather(self, query: SelectJoinQuery) -> None:
        if self._scattered_a is not None:
            self._scattered_a.remove(query.range_a, query)
        self._columns_r.remove(query, query.range_a)

    # -- query maintenance -------------------------------------------------------

    def add_query(self, *queries: SelectJoinQuery) -> None:
        """Subscribe ``queries`` with one tracker insert; a qid already
        held, or repeated, raises ``ValueError`` and changes nothing."""
        register_queries(self._queries, queries)
        self._hot.insert(*queries)

    def remove_query(self, *queries: SelectJoinQuery) -> None:
        """Cancel ``queries`` with one tracker delete; a qid not held
        raises ``KeyError`` and changes nothing."""
        self._hot.delete(*unregister_queries(self._queries, queries))

    @property
    def query_count(self) -> int:
        return len(self._queries)

    @property
    def hotspot_coverage(self) -> float:
        return self.tracker.hotspot_coverage

    # -- event processing ------------------------------------------------------------

    def process_r(self, r: RTuple) -> SelectResults:
        results: SelectResults = {}
        # Hotspot queries: SSI group probes, one per hotspot.
        for point, columns in self._hot.groups():
            probe_select_group(self.table_s.by_bc, r.b, r.a, point, columns, results)
        # Scattered queries: SJ-SelectFirst.
        tree = self._scattered_a
        if tree is None:
            tree = self._scattered_a = IntervalTree()
            for query in self._hot.scattered.values():
                tree.insert(query.range_a, query)
        for __, query in tree.iter_stab(r.a):
            cur = self.table_s.by_bc.cursor_ge((r.b, query.range_c.lo))
            hits = cur.collect_forward_prefix_le(r.b, query.range_c.hi) if cur.valid else []
            if hits:
                results[query] = hits
        return results

    def process_s(self, s: STuple):
        """Per-event S-arrival processing, one composite-index scan per
        query passing the C selection (traditional).  The reference the
        batch path, which reads the hot groups, is checked against."""
        results = {}
        for query in self._queries.values():
            if not query.range_c.contains(s.c):
                continue
            cur = self.table_r.by_ba.cursor_ge((s.b, query.range_a.lo))
            hits = cur.collect_forward_prefix_le(s.b, query.range_a.hi) if cur.valid else []
            if hits:
                results[query] = hits
        return results

    def process_r_batch(self, rs: Sequence[RTuple]) -> List[SelectResults]:
        """Batch fast path: one columnar probe covers the hotspot groups
        (batched SSI probe) and the scattered remainder (SJ-SelectFirst
        over its endpoint columns), sharing one index walk per join key.
        Delta-identical to per-event :meth:`process_r` against unchanged
        tables."""
        results: List[SelectResults] = [{} for _ in rs]
        if not self._queries:
            return results
        points, columns = self._hot.group_table()
        select_probe.batch_probe_select_r(
            self.table_s.cols_bc, rs, points, columns, results, self._columns_r
        )
        return results

    def process_s_batch(self, ss: Sequence[STuple]) -> List[RSelectResults]:
        """Batch S-arrival processing through the same hot groups and
        scattered columns, read with the roles swapped (§3.2: an S arrival
        is symmetric).  The tracker is keyed on rangeC, which an S row
        selects on, so a hot group whose rangeC extent holds no arriving
        ``c`` is skipped whole; the rest select on rangeC and enumerate R
        by rangeA.  Delta-identical to per-event :meth:`process_s` against
        unchanged tables."""
        results: List[RSelectResults] = [{} for _ in ss]
        if self._queries:
            points, columns = self._hot.group_table()
            select_probe.batch_probe_select_s(
                self.table_r.cols_ba, ss, points, columns, results, self._columns_r,
                swapped=True,
            )
        return results

    def validate(self) -> None:
        """Check hot/scattered bookkeeping against the tracker (tests)."""
        self._hot.validate(
            lambda group, columns: columns.check(group, range_a_interval, range_c_interval)
        )
        assert len(self._hot) == len(self._queries)
        scattered = self._hot.scattered
        self._columns_r.check(scattered.values(), range_a_interval, range_c_interval)
        if self._scattered_a is not None:
            held = {id(query): interval for interval, query in self._scattered_a}
            assert len(self._scattered_a) == len(scattered)
            assert held.keys() == scattered.keys()
            assert all(held[key] == query.range_a for key, query in scattered.items())


class HotspotBandJoinProcessor:
    """Hotspot-based band-join processing: BJ-SSI per-group probes on the
    hotspots, per-query ordered-index scans (BJ-QOuter style) on the
    scattered remainder."""

    name = "HOTSPOT-BASED-BJ"

    def __init__(
        self,
        table_s: TableS,
        table_r: Optional[TableR] = None,
        *,
        alpha: float,
        epsilon: float = 1.0,
    ):
        self.table_s = table_s
        self.table_r = table_r if table_r is not None else TableR()
        self._queries: Dict[int, BandJoinQuery] = {}
        self.tracker: HotspotTracker[BandJoinQuery] = HotspotTracker(
            alpha=alpha, epsilon=epsilon, interval_of=band_interval
        )
        self._hot: HotspotIndex[BandJoinQuery, EndpointOrders[BandJoinQuery]]
        self._hot = HotspotIndex(self.tracker)

    # -- query maintenance ------------------------------------------------------------

    def add_query(self, *queries: BandJoinQuery) -> None:
        """Subscribe ``queries`` with one tracker insert; a qid already
        held, or repeated, raises ``ValueError`` and changes nothing."""
        register_queries(self._queries, queries)
        self._hot.insert(*queries)

    def remove_query(self, *queries: BandJoinQuery) -> None:
        """Cancel ``queries`` with one tracker delete; a qid not held
        raises ``KeyError`` and changes nothing."""
        self._hot.delete(*unregister_queries(self._queries, queries))

    @property
    def query_count(self) -> int:
        return len(self._queries)

    @property
    def hotspot_coverage(self) -> float:
        return self.tracker.hotspot_coverage

    # -- event processing ----------------------------------------------------------------

    def process_r(self, r: RTuple) -> BandResults:
        results: BandResults = {}
        for point, orders in self._hot.groups():
            probe_band_group_r(self.table_s.by_b, r, point, orders, results)
        for query in self._hot.scattered.values():
            window = query.s_window(r)
            hits = self.table_s.by_b.range_values(window.lo, window.hi)
            if hits:
                results[query] = hits
        return results

    def process_s(self, s: STuple) -> RBandResults:
        """The mirror of :meth:`process_r`: one BJ-SSI group probe of R(B)
        per hotspot (a band's stabbing group does not depend on which side
        arrives), a window scan per scattered query."""
        results: RBandResults = {}
        for point, orders in self._hot.groups():
            probe_band_group_s(self.table_r.by_b, s, point, orders, results)
        for query in self._hot.scattered.values():
            window = query.r_window(s)
            hits = self.table_r.by_b.range_values(window.lo, window.hi)
            if hits:
                results[query] = hits
        return results

    def process_r_batch(
        self,
        rs: Sequence[RTuple],
        touched: Optional[Sequence[float]] = None,
        suspects: Optional[Dict[int, List[BandJoinQuery]]] = None,
    ) -> List[BandResults]:
        """Batch fast path: hotspot groups take the batched BJ-SSI probe;
        a scattered query's window scan is a slice of the probed table's
        ``col_b`` between two bisects.  Delta-identical to per-event
        :meth:`process_r` against unchanged tables.  ``touched`` /
        ``suspects`` as in :meth:`~repro.operators.band_join.BJSSI.process_r_batch`:
        a scattered query tests its own window too."""
        return self._process_batch(rs, self.table_s, touched, suspects, r_side=True)

    def process_s_batch(
        self,
        ss: Sequence[STuple],
        touched: Optional[Sequence[float]] = None,
        suspects: Optional[Dict[int, List[BandJoinQuery]]] = None,
    ) -> List[RBandResults]:
        """The mirror of :meth:`process_r_batch` for a run of S-tuples,
        delta-identical to per-event :meth:`process_s`."""
        return self._process_batch(ss, self.table_r, touched, suspects, r_side=False)

    def _process_batch(
        self,
        rows: Sequence,
        table,
        touched: Optional[Sequence[float]],
        suspects: Optional[Dict[int, List[BandJoinQuery]]],
        *,
        r_side: bool,
    ) -> List:
        results: List[Dict] = [{} for _ in rows]
        if not self._queries:
            return results  # and the index stays unbuilt
        col_b = table.col_b
        if self._hot.group_count():
            points, structures = self._hot.group_table()
            probe = band_probe.batch_probe_band_r if r_side else band_probe.batch_probe_band_s
            probe(col_b, rows, points, structures, results, touched, suspects)
        keys, values = col_b
        # A scattered window is flagged as the kernel flags a group's.
        marks = touched if touched and suspects is not None else ()
        n_marks = len(marks)
        for query in self._hot.scattered.values():  # queries outer, rows inner
            band = query.band
            # An S arrival scans [b - hi, b - lo]: the same sums, ends negated.
            lo, hi = (band.lo, band.hi) if r_side else (-band.hi, -band.lo)
            for i, row in enumerate(rows):
                w_lo, w_hi = lo + row.b, hi + row.b
                hits = values[bisect_left(keys, w_lo) : bisect_right(keys, w_hi)]
                if hits:
                    results[i][query] = hits
                    if n_marks and (at := bisect_left(marks, w_lo)) < n_marks and marks[at] <= w_hi:
                        suspects.setdefault(i, []).append(query)
        return results

    def validate(self) -> None:
        self._hot.validate(lambda group, orders: orders.check(group, band_interval))
        assert len(self._hot) == len(self._queries)
