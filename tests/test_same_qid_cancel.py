"""Cancelling with a same-qid copy of a subscribed query.

A cancellation names its query by qid.  Every processor must unindex the
object it holds under that qid, not the copy it was handed: otherwise the
registry drops the qid while an index keeps the held query, and
subscribing it again fails.
"""

from typing import Any, Callable, Dict, List, NamedTuple

import pytest

from repro.core.intervals import Interval
from repro.core.multidim import Box
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.system import ContinuousQuerySystem
from repro.engine.table import TableR, TableS
from repro.operators.band_join import make_band_strategies
from repro.operators.band_select_join import BandSelectJoinQuery, BSJPerQuery, BSJSSI
from repro.operators.hotspot_processor import (
    HotspotBandJoinProcessor,
    HotspotSelectJoinProcessor,
)
from repro.operators.multi_attribute import (
    BoxSubscription,
    RTreeBoxIndex,
    ScanBoxIndex,
    SSIBoxIndex,
)
from repro.operators.range_select import (
    HotspotRangeIndex,
    IntervalTreeRangeIndex,
    RangeSubscription,
    ScanRangeIndex,
    SSIRangeIndex,
)
from repro.operators.select_join import make_select_strategies


class Case(NamedTuple):
    subscribe: Callable[[Any], Any]
    cancel: Callable[[Any], Any]
    count: Callable[[], int]
    answered: Callable[[], List[Any]]  # the queries one probe event reaches
    query: Any
    copy: Any


def band_query(qid=None):
    return BandJoinQuery(Interval(-1.0, 1.0), qid=qid)


def select_query(qid=None):
    return SelectJoinQuery(Interval(0.0, 10.0), Interval(0.0, 10.0), qid=qid)


def band_select_query(qid=None):
    return BandSelectJoinQuery(Interval(-1.0, 1.0), Interval(0.0, 10.0), Interval(0.0, 10.0), qid=qid)


def _join(make, make_query):
    """A join processor over one S row that the probe R row joins."""
    table_s, table_r = TableS(order=4), TableR(order=4)
    table_s.add(0.0, 5.0)
    processor = make(table_s, table_r)
    query = make_query()
    return Case(
        processor.add_query, processor.remove_query, lambda: processor.query_count,
        lambda: list(processor.process_r(table_r.new_row(5.0, 0.0))),
        query, make_query(query.qid),
    )


def _range(make):
    index = make()
    query = RangeSubscription(Interval(0.0, 10.0))
    return Case(
        index.add, index.remove, lambda: len(index), lambda: index.match(5.0),
        query, RangeSubscription(Interval(0.0, 10.0), qid=query.qid),
    )


def _box(make):
    index = make(2)
    box = Box((0.0, 0.0), (10.0, 10.0))
    query = BoxSubscription(box)
    return Case(
        index.add, index.remove, lambda: len(index), lambda: index.match((5.0, 5.0)),
        query, BoxSubscription(box, qid=query.qid),
    )


def _system(alpha, make_query):
    system = ContinuousQuerySystem(alpha=alpha)
    system.insert_s(0.0, 5.0)
    query = make_query()
    return Case(
        system.subscribe, system.unsubscribe, lambda: system.subscription_count,
        lambda: list(system.insert_r(5.0, 0.0)), query, make_query(query.qid),
    )


CASES: Dict[str, Callable[[], Case]] = {
    **{
        name: (lambda name=name: _join(lambda s, r: make_band_strategies(s, r)[name], band_query))
        for name in ("BJ-Q", "BJ-D", "BJ-MJ", "BJ-SSI")
    },
    **{
        name: (lambda name=name: _join(lambda s, r: make_select_strategies(s, r)[name], select_query))
        for name in ("NAIVE", "SJ-J", "SJ-S", "SJ-SSI")
    },
    "HOTSPOT-BJ": lambda: _join(
        lambda s, r: HotspotBandJoinProcessor(s, r, alpha=0.5), band_query
    ),
    "HOTSPOT-SJ": lambda: _join(
        lambda s, r: HotspotSelectJoinProcessor(s, r, alpha=0.5), select_query
    ),
    "BSJ-Q": lambda: _join(BSJPerQuery, band_select_query),
    "BSJ-SSI": lambda: _join(BSJSSI, band_select_query),
    "range-SCAN": lambda: _range(ScanRangeIndex),
    "range-ITREE": lambda: _range(IntervalTreeRangeIndex),
    "range-SSI": lambda: _range(SSIRangeIndex),
    "range-HOTSPOT": lambda: _range(lambda: HotspotRangeIndex(alpha=0.5)),
    "box-SCAN": lambda: _box(ScanBoxIndex),
    "box-RTREE": lambda: _box(RTreeBoxIndex),
    "box-SSI": lambda: _box(SSIBoxIndex),
    **{
        f"system-{kind.__name__}-alpha={alpha}": (
            lambda alpha=alpha, kind=kind: _system(alpha, kind)
        )
        for alpha in (None, 0.5)
        for kind in (band_query, select_query)
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_copy_cancels_the_held_query(name):
    case = CASES[name]()
    case.subscribe(case.query)
    assert case.answered() == [case.query]
    case.cancel(case.copy)
    assert case.count() == 0
    assert case.answered() == []
    case.subscribe(case.query)
    assert case.count() == 1
    assert case.answered() == [case.query]
