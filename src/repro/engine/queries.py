"""Continuous-query model: band joins and equality joins with selections.

The two query templates of Section 3, over R(A, B) and S(B, C):

* **band join** — ``R JOIN S ON S.B - R.B IN rangeB_i``: a new pair (r, s)
  matches query i iff ``s.b - r.b`` stabs the band window;
* **equality join with local selections** —
  ``sigma_{A in rangeA_i} R JOIN_{R.B=S.B} sigma_{C in rangeC_i} S``: a new
  pair matches iff the join keys are equal and both selection ranges are
  stabbed.

Query objects use identity semantics (two queries with equal ranges are
distinct subscriptions), so they can key result dictionaries directly.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from repro.core.intervals import Interval
from repro.dstruct.rtree import Rect
from repro.engine.table import RTuple, STuple

_query_ids = itertools.count()


class BandJoinQuery:
    """A continuous band join with window ``band`` = rangeB_i.

    The window is interpreted as a constraint on ``S.B - R.B``; for an
    incoming r-tuple the instantiated selection on S is ``band + r.b``.
    """

    __slots__ = ("qid", "band")

    def __init__(self, band: Interval, qid: Optional[int] = None):
        self.qid = qid if qid is not None else next(_query_ids)
        self.band = band

    def matches(self, r: RTuple, s: STuple) -> bool:
        return self.band.contains(s.b - r.b)

    def s_window(self, r: RTuple) -> Interval:
        """The instantiated selection range on S.B for this r-tuple."""
        return self.band.shift(r.b)

    def r_window(self, s: STuple) -> Interval:
        """The instantiated selection range on R.B for an incoming s-tuple
        (the symmetric case: r.b must lie in ``s.b - band``)."""
        return Interval(s.b - self.band.hi, s.b - self.band.lo)

    def __repr__(self) -> str:
        return f"BandJoinQuery(qid={self.qid}, band={self.band})"


class SelectJoinQuery:
    """A continuous equality join with local selections rangeA_i, rangeC_i."""

    __slots__ = ("qid", "range_a", "range_c")

    def __init__(self, range_a: Interval, range_c: Interval, qid: Optional[int] = None):
        self.qid = qid if qid is not None else next(_query_ids)
        self.range_a = range_a
        self.range_c = range_c

    def matches(self, r: RTuple, s: STuple) -> bool:
        return (
            r.b == s.b
            and self.range_a.contains(r.a)
            and self.range_c.contains(s.c)
        )

    @property
    def rect(self) -> Rect:
        """The query rectangle in the product space S.C x R.A (Figure 5)."""
        return Rect(self.range_c.lo, self.range_a.lo, self.range_c.hi, self.range_a.hi)

    def __repr__(self) -> str:
        return (
            f"SelectJoinQuery(qid={self.qid}, rangeA={self.range_a}, "
            f"rangeC={self.range_c})"
        )


def register_queries(registry: Dict[int, Any], queries: Sequence[Any]) -> None:
    """Add ``queries`` to a processor's qid registry, all or none: a qid
    already held, or repeated among ``queries``, raises ``ValueError``
    before anything changes."""
    seen: Set[int] = set()
    for query in queries:
        qid = query.qid
        if qid in registry or qid in seen:
            raise ValueError(f"duplicate query id {qid}")
        seen.add(qid)
    for query in queries:
        registry[query.qid] = query


def unregister_queries(registry: Dict[int, Any], queries: Sequence[Any]) -> List[Any]:
    """Remove ``queries`` from a processor's qid registry, all or none: a
    qid not held, or repeated among ``queries``, raises ``KeyError``
    before anything changes.  Returns the held objects, in order: a
    cancellation names a query by qid, so the caller unindexes these, not
    ``queries``, which may be same-qid copies."""
    seen: Set[int] = set()
    for query in queries:
        qid = query.qid
        if qid not in registry or qid in seen:
            raise KeyError(qid)
        seen.add(qid)
    return [registry.pop(query.qid) for query in queries]


def band_interval(query: BandJoinQuery) -> Interval:
    """``interval_of`` for SSIs built over band-join windows."""
    return query.band


def range_c_interval(query: SelectJoinQuery) -> Interval:
    """``interval_of`` for SSIs over the S.C selection ranges (R-side
    processing)."""
    return query.range_c


def range_a_interval(query: SelectJoinQuery) -> Interval:
    """``interval_of`` for SSIs over the R.A selection ranges (S-side
    processing)."""
    return query.range_a


def brute_force_band_join(
    queries: Iterable[BandJoinQuery], r: RTuple, table_s
) -> dict:
    """Oracle evaluator: scan everything.  Tests cross-validate every
    strategy against this."""
    results: dict = {}
    for query in queries:
        hits: List[STuple] = [s for s in table_s if query.matches(r, s)]
        if hits:
            results[query] = sorted(hits, key=lambda s: (s.b, s.c, s.sid))
    return results


def brute_force_select_join(
    queries: Iterable[SelectJoinQuery], r: RTuple, table_s
) -> dict:
    """Oracle evaluator for select-joins."""
    results: dict = {}
    for query in queries:
        hits: List[STuple] = [s for s in table_s if query.matches(r, s)]
        if hits:
            results[query] = sorted(hits, key=lambda s: (s.b, s.c, s.sid))
    return results
