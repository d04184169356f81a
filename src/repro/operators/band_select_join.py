"""Band joins with local selections (Section 6 future work).

Example 2's full query is "a band join with local selections":

    sigma_{A in rangeA_i} R
        JOIN_{S.B - R.B in band_i} sigma_{C in rangeC_i} S

The paper notes that "it remains a challenging problem to develop methods
for composing group-processing techniques for more complex queries"; this
module composes them the pragmatic way:

* the SSI is built on the band windows (the join condition dominates the
  sharing opportunity, as in Section 3.1);
* STEP 1 runs unchanged and yields band-affected *candidates*; each
  candidate is filtered by its R.A selection in O(1);
* STEP 2's outward leaf walk filters each S-tuple by the candidate's C
  selection.

Unlike pure BJ-SSI the result is not fully output-sensitive: a candidate
may pass the band test yet produce no results once the C selection
applies, and filtered walk entries are touched without contributing.  The
processor still inherits the tau-bound probe structure, which is what the
composition keeps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.partition_base import DynamicStabbingPartitionBase
from repro.core.ssi import StabbingSetIndex
from repro.dstruct.endpoint_orders import EndpointOrders
from repro.engine.table import RTuple, STuple, TableR, TableS

BandSelectResults = Dict["BandSelectJoinQuery", List[STuple]]


class BandSelectJoinQuery:
    """A continuous band join with local selections on both inputs."""

    __slots__ = ("qid", "band", "range_a", "range_c")

    _ids = iter(range(1, 1 << 62))

    def __init__(
        self,
        band: Interval,
        range_a: Interval,
        range_c: Interval,
        qid: Optional[int] = None,
    ):
        self.qid = qid if qid is not None else next(self._ids)
        self.band = band
        self.range_a = range_a
        self.range_c = range_c

    def matches(self, r: RTuple, s: STuple) -> bool:
        return (
            self.band.contains(s.b - r.b)
            and self.range_a.contains(r.a)
            and self.range_c.contains(s.c)
        )

    def s_window(self, r: RTuple) -> Interval:
        return self.band.shift(r.b)

    def __repr__(self) -> str:
        return (
            f"BandSelectJoinQuery(qid={self.qid}, band={self.band}, "
            f"rangeA={self.range_a}, rangeC={self.range_c})"
        )


def band_of(query: BandSelectJoinQuery) -> Interval:
    return query.band


def brute_force_band_select_join(
    queries: Iterable[BandSelectJoinQuery], r: RTuple, table_s: TableS
) -> BandSelectResults:
    results: BandSelectResults = {}
    for query in queries:
        hits = [s for s in table_s if query.matches(r, s)]
        if hits:
            results[query] = sorted(hits, key=lambda s: (s.b, s.c, s.sid))
    return results


class BandSelectStrategy:
    """Interface shared by band-select-join strategies."""

    name = "abstract"

    def __init__(self, table_s: TableS, table_r: Optional[TableR] = None):
        self.table_s = table_s
        self.table_r = table_r if table_r is not None else TableR()
        self._queries: Dict[int, BandSelectJoinQuery] = {}

    def add_query(self, query: BandSelectJoinQuery) -> None:
        if query.qid in self._queries:
            raise ValueError(f"duplicate query id {query.qid}")
        self._queries[query.qid] = query
        self._index_query(query)

    def remove_query(self, query: BandSelectJoinQuery) -> None:
        # Unindex the held object: ``query`` may be a same-qid copy.
        self._unindex_query(self._queries.pop(query.qid))

    @property
    def query_count(self) -> int:
        return len(self._queries)

    def process_r(self, r: RTuple) -> BandSelectResults:
        raise NotImplementedError

    def _index_query(self, query: BandSelectJoinQuery) -> None:
        raise NotImplementedError

    def _unindex_query(self, query: BandSelectJoinQuery) -> None:
        raise NotImplementedError


class BSJPerQuery(BandSelectStrategy):
    """Baseline: per-query window scan with both selections applied."""

    name = "BSJ-Q"

    def _index_query(self, query: BandSelectJoinQuery) -> None:
        pass

    def _unindex_query(self, query: BandSelectJoinQuery) -> None:
        pass

    def process_r(self, r: RTuple) -> BandSelectResults:
        results: BandSelectResults = {}
        for query in self._queries.values():
            if not query.range_a.contains(r.a):
                continue
            window = query.s_window(r)
            hits = [
                s
                for s in self.table_s.by_b.range_values(window.lo, window.hi)
                if query.range_c.contains(s.c)
            ]
            if hits:
                results[query] = hits
        return results


class BSJSSI(BandSelectStrategy):
    """SSI on the band windows; selections applied during the group probe."""

    name = "BSJ-SSI"

    def __init__(
        self,
        table_s: TableS,
        table_r: Optional[TableR] = None,
        *,
        partition: Optional[DynamicStabbingPartitionBase[BandSelectJoinQuery]] = None,
        epsilon: float = 1.0,
    ):
        super().__init__(table_s, table_r)
        if partition is None:
            partition = LazyStabbingPartition(epsilon=epsilon, interval_of=band_of)
        self._ssi: StabbingSetIndex[BandSelectJoinQuery, EndpointOrders[BandSelectJoinQuery]] = (
            StabbingSetIndex(partition)
        )

    @property
    def group_count(self) -> int:
        return self._ssi.group_count()

    def _index_query(self, query: BandSelectJoinQuery) -> None:
        self._ssi.insert(query)

    def _unindex_query(self, query: BandSelectJoinQuery) -> None:
        self._ssi.delete(query)

    def process_r(self, r: RTuple) -> BandSelectResults:
        results: BandSelectResults = {}
        if not self._queries:
            return results  # and S(B) stays unbuilt
        tree = self.table_s.by_b
        for point, structure in self._ssi.groups():
            pred, succ = tree.surrounding(point + r.b)
            if not pred.valid and not succ.valid:
                continue
            candidates: Dict[int, BandSelectJoinQuery] = {}
            if pred.valid:
                bound = pred.key - r.b
                for query in structure.by_lo:
                    if query.band.lo > bound:
                        break
                    if query.range_a.contains(r.a):
                        candidates[query.qid] = query
            if succ.valid:
                bound = succ.key - r.b
                for query in structure.by_hi_desc:
                    if query.band.hi < bound:
                        break
                    if query.range_a.contains(r.a):
                        candidates.setdefault(query.qid, query)
            for query in candidates.values():
                window = query.s_window(r)
                if succ.valid:
                    left = succ.clone()
                    left.retreat()
                else:
                    left = pred
                hits = (
                    left.collect_backward_ge(window.lo) if left.valid else []
                )
                if succ.valid:
                    hits.extend(succ.collect_forward_le(window.hi))
                hits = [s for s in hits if query.range_c.contains(s.c)]
                if hits:
                    results[query] = hits
        return results
