"""Hotspot-based query processing (Section 2.2 applied to Section 3; Fig 9).

The "purist" SSI strategies apply group processing to *every* stabbing
group, paying per-group overhead even for tiny groups.  The hotspot-based
processors instead maintain a :class:`~repro.core.hotspot_tracker.
HotspotTracker` over the query ranges and

* run the SSI per-group probe only on the hotspot groups (at most 2/alpha of
  them, so O(alpha^-1 (log m + g(n)) + k) for the hotspot queries), and
* fall back to a traditional algorithm for the scattered remainder
  (SJ-SelectFirst for select-joins, a per-query window scan for band joins),

exactly the TRADITIONAL vs HOTSPOT-BASED comparison of Figure 9.  The
per-hotspot index structures (the members' endpoint columns for
select-joins, the two endpoint orders for band joins) are built on
promotion and dropped on demotion via the tracker's listener callbacks.

``add_query`` and ``remove_query`` take any number of queries and make one
tracker call for all of them, so a batch's subscription changes cost one
rebalance per plane; each new query is classified hot or scattered after
that call.  Classification decides how a query's matches are found, never
which they are.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.partition_base import DynamicGroup
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
        # Hotspot side: each hotspot group's members, laid out as _columns_r.
        self._hot_columns: Dict[int, select_probe.SelectColumns] = {}
        # Scattered side: SJ-SelectFirst structures over scattered queries.
        self._scattered: Dict[int, SelectJoinQuery] = {}
        # SelectFirst's rangeA tree over the scattered queries.  Only the
        # per-event process_r reads it, so that builds it on first use; from
        # then on it is kept in step with _scattered.
        self._scattered_a: Optional[IntervalTree[SelectJoinQuery]] = None
        # Endpoint columns for the batch probe: every query for S arrivals
        # (select on rangeC, enumerate R by rangeA), the scattered ones for
        # R arrivals (select on rangeA, enumerate S by rangeC).
        self._columns_s = select_probe.SelectColumns()
        self._columns_r = select_probe.SelectColumns()
        self.tracker: HotspotTracker[SelectJoinQuery] = HotspotTracker(
            alpha=alpha, epsilon=epsilon, interval_of=range_c_interval
        )
        self.tracker.add_listener(self)

    # -- tracker listener callbacks ------------------------------------------

    def on_promoted(self, group: DynamicGroup[SelectJoinQuery]) -> None:
        columns = self._hot_columns[id(group)] = select_probe.SelectColumns()
        for query in group:
            columns.add(query, query.range_a, query.range_c)
            self._drop_scattered(query)

    def on_demoted(self, group: DynamicGroup[SelectJoinQuery]) -> None:
        del self._hot_columns[id(group)]
        for query in group:
            self._add_scattered(query)

    def on_hot_items_added(self, added: Sequence[Tuple[DynamicGroup[SelectJoinQuery], SelectJoinQuery]]) -> None:
        for group, query in added:
            self._hot_columns[id(group)].add(query, query.range_a, query.range_c)

    def on_hot_items_removed(self, removed: Sequence[Tuple[DynamicGroup[SelectJoinQuery], SelectJoinQuery]]) -> None:
        for group, query in removed:
            self._hot_columns[id(group)].remove(query)

    def _add_scattered(self, query: SelectJoinQuery) -> None:
        if id(query) not in self._scattered:
            self._scattered[id(query)] = query
            if self._scattered_a is not None:
                self._scattered_a.insert(query.range_a, query)
            self._columns_r.add(query, query.range_a, query.range_c)

    def _drop_scattered(self, query: SelectJoinQuery) -> None:
        if id(query) in self._scattered:
            del self._scattered[id(query)]
            if self._scattered_a is not None:
                self._scattered_a.remove(query.range_a, query)
            self._columns_r.remove(query)

    # -- query maintenance -------------------------------------------------------

    def add_query(self, *queries: SelectJoinQuery) -> None:
        """Subscribe ``queries`` with one tracker insert; a qid already
        held, or repeated, raises ``ValueError`` and changes nothing."""
        register_queries(self._queries, queries)
        for query in queries:
            self._columns_s.add(query, query.range_c, query.range_a)
        self.tracker.insert(*queries)
        for query in queries:
            if not self.tracker.is_hotspot_item(query):
                self._add_scattered(query)

    def remove_query(self, *queries: SelectJoinQuery) -> None:
        """Cancel ``queries`` with one tracker delete; a qid not held
        raises ``KeyError`` and changes nothing."""
        held = unregister_queries(self._queries, queries)
        for query in held:
            self._columns_s.remove(query)
            self._drop_scattered(query)
        self.tracker.delete(*held)

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
        for group in self.tracker.hotspot_groups:
            probe_select_group(
                self.table_s.by_bc, r.b, r.a, group.stabbing_point,
                self._hot_columns[id(group)], results,
            )
        # Scattered queries: SJ-SelectFirst.
        tree = self._scattered_a
        if tree is None:
            tree = self._scattered_a = IntervalTree()
            for query in self._scattered.values():
                tree.insert(query.range_a, query)
        for __, query in tree.iter_stab(r.a):
            cur = self.table_s.by_bc.cursor_ge((r.b, query.range_c.lo))
            hits = cur.collect_forward_prefix_le(r.b, query.range_c.hi) if cur.valid else []
            if hits:
                results[query] = hits
        return results

    def process_s(self, s: STuple):
        """Symmetric S-arrival processing, one composite-index scan per
        query passing the C selection (traditional; the hotspot tracker is
        keyed on rangeC projections, which group R-side probes only)."""
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
        groups = self.tracker.hotspot_groups
        points = [group.stabbing_point for group in groups]
        columns = [self._hot_columns[id(group)] for group in groups]
        select_probe.batch_probe_select_r(
            self.table_s.cols_bc, rs, points, columns, results, self._columns_r
        )
        return results

    def process_s_batch(self, ss: Sequence[STuple]) -> List[RSelectResults]:
        """Batch S-arrival processing: the same probe with no groups (the
        tracker is keyed on rangeC) and every query in the columns."""
        results: List[RSelectResults] = [{} for _ in ss]
        if self._queries:
            select_probe.batch_probe_select_s(
                self.table_r.cols_ba, ss, (), (), results, self._columns_s
            )
        return results

    def validate(self) -> None:
        """Check hot/scattered bookkeeping against the tracker (tests)."""
        self.tracker.validate()
        hot = {id(q) for g in self.tracker.hotspot_groups for q in g}
        assert hot.isdisjoint(self._scattered.keys())
        assert len(hot) + len(self._scattered) == len(self._queries)
        assert set(self._hot_columns) == {id(g) for g in self.tracker.hotspot_groups}
        for group in self.tracker.hotspot_groups:
            self._hot_columns[id(group)].check(group, range_a_interval, range_c_interval)
        self._columns_s.check(self._queries.values(), range_c_interval, range_a_interval)
        self._columns_r.check(self._scattered.values(), range_a_interval, range_c_interval)
        if self._scattered_a is not None:
            held = {id(query): interval for interval, query in self._scattered_a}
            assert len(self._scattered_a) == len(self._scattered)
            assert held.keys() == self._scattered.keys()
            assert all(held[key] == query.range_a for key, query in self._scattered.items())


class TraditionalSelectJoinProcessor:
    """TRADITIONAL baseline of Figure 9: plain SJ-SelectFirst over all
    queries, indifferent to clusteredness."""

    name = "TRADITIONAL"

    def __init__(self, table_s: TableS, table_r: Optional[TableR] = None):
        from repro.operators.select_join import SJSelectFirst

        self._inner = SJSelectFirst(table_s, table_r)

    def add_query(self, query: SelectJoinQuery) -> None:
        self._inner.add_query(query)

    def remove_query(self, query: SelectJoinQuery) -> None:
        self._inner.remove_query(query)

    @property
    def query_count(self) -> int:
        return self._inner.query_count

    def process_r(self, r: RTuple) -> SelectResults:
        return self._inner.process_r(r)


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
        self._hot_indexes: Dict[int, EndpointOrders[BandJoinQuery]] = {}
        self._scattered: Dict[int, BandJoinQuery] = {}
        self.tracker: HotspotTracker[BandJoinQuery] = HotspotTracker(
            alpha=alpha, epsilon=epsilon, interval_of=band_interval
        )
        self.tracker.add_listener(self)

    # -- tracker listener callbacks ---------------------------------------------

    def on_promoted(self, group: DynamicGroup[BandJoinQuery]) -> None:
        index: EndpointOrders[BandJoinQuery] = EndpointOrders()
        for query in group:
            index.add(query, query.band)
            self._scattered.pop(id(query), None)
        self._hot_indexes[id(group)] = index

    def on_demoted(self, group: DynamicGroup[BandJoinQuery]) -> None:
        del self._hot_indexes[id(group)]
        for query in group:
            self._scattered[id(query)] = query

    def on_hot_items_added(self, added: Sequence[Tuple[DynamicGroup[BandJoinQuery], BandJoinQuery]]) -> None:
        for group, query in added:
            self._hot_indexes[id(group)].add(query, query.band)

    def on_hot_items_removed(self, removed: Sequence[Tuple[DynamicGroup[BandJoinQuery], BandJoinQuery]]) -> None:
        for group, query in removed:
            self._hot_indexes[id(group)].remove(query, query.band)

    # -- query maintenance ------------------------------------------------------------

    def add_query(self, *queries: BandJoinQuery) -> None:
        """Subscribe ``queries`` with one tracker insert; a qid already
        held, or repeated, raises ``ValueError`` and changes nothing."""
        register_queries(self._queries, queries)
        self.tracker.insert(*queries)
        for query in queries:
            if not self.tracker.is_hotspot_item(query):
                self._scattered[id(query)] = query

    def remove_query(self, *queries: BandJoinQuery) -> None:
        """Cancel ``queries`` with one tracker delete; a qid not held
        raises ``KeyError`` and changes nothing."""
        held = unregister_queries(self._queries, queries)
        for query in held:
            self._scattered.pop(id(query), None)
        self.tracker.delete(*held)

    @property
    def query_count(self) -> int:
        return len(self._queries)

    @property
    def hotspot_coverage(self) -> float:
        return self.tracker.hotspot_coverage

    # -- event processing ----------------------------------------------------------------

    def process_r(self, r: RTuple) -> BandResults:
        results: BandResults = {}
        for group in self.tracker.hotspot_groups:
            probe_band_group_r(
                self.table_s.by_b, r, group.stabbing_point,
                self._hot_indexes[id(group)], results,
            )
        for query in self._scattered.values():
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
        for group in self.tracker.hotspot_groups:
            probe_band_group_s(
                self.table_r.by_b, s, group.stabbing_point,
                self._hot_indexes[id(group)], results,
            )
        for query in self._scattered.values():
            window = query.r_window(s)
            hits = self.table_r.by_b.range_values(window.lo, window.hi)
            if hits:
                results[query] = hits
        return results

    def process_r_batch(self, rs: Sequence[RTuple]) -> List[BandResults]:
        """Batch fast path: hotspot groups take the batched BJ-SSI probe;
        a scattered query's window scan is a slice of the probed table's
        ``col_b`` between two bisects.  Delta-identical to per-event
        :meth:`process_r` against unchanged tables."""
        return self._process_batch(rs, self.table_s, r_side=True)

    def process_s_batch(self, ss: Sequence[STuple]) -> List[RBandResults]:
        """The mirror of :meth:`process_r_batch` for a run of S-tuples,
        delta-identical to per-event :meth:`process_s`."""
        return self._process_batch(ss, self.table_r, r_side=False)

    def _process_batch(self, rows: Sequence, table, *, r_side: bool) -> List:
        results: List[Dict] = [{} for _ in rows]
        if not self._queries:
            return results  # and the index stays unbuilt
        col_b = table.col_b
        groups = self.tracker.hotspot_groups
        if groups:
            points = [group.stabbing_point for group in groups]
            structures = [self._hot_indexes[id(group)] for group in groups]
            probe = band_probe.batch_probe_band_r if r_side else band_probe.batch_probe_band_s
            probe(col_b, rows, points, structures, results)
        keys, values = col_b
        for query in self._scattered.values():  # queries outer, rows inner
            band = query.band
            # An S arrival scans [b - hi, b - lo]: the same sums, ends negated.
            lo, hi = (band.lo, band.hi) if r_side else (-band.hi, -band.lo)
            for i, row in enumerate(rows):
                hits = values[bisect_left(keys, lo + row.b) : bisect_right(keys, hi + row.b)]
                if hits:
                    results[i][query] = hits
        return results

    def validate(self) -> None:
        self.tracker.validate()
        hot = {id(q) for g in self.tracker.hotspot_groups for q in g}
        assert hot.isdisjoint(self._scattered.keys())
        assert len(hot) + len(self._scattered) == len(self._queries)
        for group in self.tracker.hotspot_groups:
            assert len(self._hot_indexes[id(group)].by_lo) == group.size
