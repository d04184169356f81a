"""Query-processing strategies: band joins, select-joins, hotspot-based
processing, and the Section 6 extensions (range/multi-attribute
subscriptions, band joins with selections, cost-based adaptivity)."""

from repro.operators.adaptive import AdaptiveSelectJoinProcessor
from repro.operators.band_join import (
    BandJoinStrategy,
    BJDOuter,
    BJMergeJoin,
    BJQOuter,
    BJSSI,
    make_band_strategies,
)
from repro.operators.band_select_join import (
    BandSelectJoinQuery,
    BSJPerQuery,
    BSJSSI,
    brute_force_band_select_join,
)
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
from repro.operators.select_join import (
    SelectJoinStrategy,
    SJJoinFirst,
    SJNaive,
    SJSelectFirst,
    SJSSI,
    make_select_strategies,
)

__all__ = [
    "AdaptiveSelectJoinProcessor",
    "BJDOuter",
    "BJMergeJoin",
    "BJQOuter",
    "BJSSI",
    "BSJPerQuery",
    "BSJSSI",
    "BandJoinStrategy",
    "BandSelectJoinQuery",
    "BoxSubscription",
    "HotspotBandJoinProcessor",
    "HotspotRangeIndex",
    "HotspotSelectJoinProcessor",
    "IntervalTreeRangeIndex",
    "RTreeBoxIndex",
    "RangeSubscription",
    "SJJoinFirst",
    "SJNaive",
    "SJSSI",
    "SJSelectFirst",
    "SSIBoxIndex",
    "SSIRangeIndex",
    "ScanBoxIndex",
    "ScanRangeIndex",
    "SelectJoinStrategy",
    "brute_force_band_select_join",
    "make_band_strategies",
    "make_select_strategies",
]
