"""A hotspot processor's ``validate()`` convicts a hot group's structure
that drifted from the group: a member dropped from it, or swapped for a
stranger carrying the same ranges."""

import pytest

from repro.core.intervals import Interval
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.table import TableR, TableS
from repro.operators.hotspot_processor import HotspotBandJoinProcessor, HotspotSelectJoinProcessor
from repro.operators.range_select import HotspotRangeIndex, RangeSubscription


def select_case():
    processor = HotspotSelectJoinProcessor(TableS(), TableR(), alpha=0.2)
    queries = [SelectJoinQuery(Interval(0, 10 + k), Interval(40 - k, 60 + k)) for k in range(10)]
    processor.add_query(*queries)

    def drop(columns, query):
        columns.remove(query, query.range_a)

    def swap(columns, query):
        columns.remove(query, query.range_a)
        columns.add(SelectJoinQuery(query.range_a, query.range_c), query.range_a, query.range_c)

    return processor, drop, swap


def band_case():
    processor = HotspotBandJoinProcessor(TableS(), TableR(), alpha=0.2)
    processor.add_query(*(BandJoinQuery(Interval(-1.0 - k, 1.0 + k)) for k in range(10)))

    def drop(orders, query):
        orders.remove(query, query.band)

    def swap(orders, query):
        orders.remove(query, query.band)
        orders.add(BandJoinQuery(query.band), query.band)

    return processor, drop, swap


def range_case():
    index = HotspotRangeIndex(alpha=0.2)
    for k in range(10):
        index.add(RangeSubscription(Interval(-1.0 - k, 1.0 + k)))

    def drop(orders, subscription):
        orders.remove(subscription, subscription.range)

    def swap(orders, subscription):
        orders.remove(subscription, subscription.range)
        orders.add(RangeSubscription(subscription.range), subscription.range)

    return index, drop, swap


@pytest.mark.parametrize("drift", ["drop", "swap"])
@pytest.mark.parametrize("case", [select_case, band_case, range_case], ids=["select", "band", "range"])
def test_validate_convicts_a_drifted_hot_structure(case, drift):
    processor, drop, swap = case()
    processor.validate()
    (group,) = processor._hot.tracker.hotspot_groups
    assert group.size == 10
    member = next(iter(group))
    (drop if drift == "drop" else swap)(processor._hot.structure_of(group), member)
    with pytest.raises(AssertionError):
        processor.validate()
