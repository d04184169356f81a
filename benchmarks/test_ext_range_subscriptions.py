"""Extension benchmark: range-subscription matching, SSI group processing
vs the classic stabbing index (an interval tree).

On clustered subscriptions the SSI index answers events in O(tau + k) ---
whole groups reported through the common-intersection fast path --- and
should clearly beat the classic O(log n + k) structure; on scattered
subscriptions it degrades toward it.
"""

import random

from repro.bench.harness import Series, measure_throughput, print_figure
from repro.core.intervals import Interval
from repro.operators.range_select import (
    HotspotRangeIndex,
    IntervalTreeRangeIndex,
    RangeSubscription,
    SSIRangeIndex,
)

SUBSCRIPTIONS = 20_000
EVENTS = 300
CLUSTERS = 12


def make_subscriptions(clustered_fraction, seed):
    rng = random.Random(seed)
    anchors = [1_000.0 * (i + 1) for i in range(CLUSTERS)]
    out = []
    for __ in range(SUBSCRIPTIONS):
        if rng.random() < clustered_fraction:
            anchor = rng.choice(anchors)
            lo = anchor - abs(rng.normalvariate(40, 25)) - 0.5
            hi = anchor + abs(rng.normalvariate(40, 25)) + 0.5
        else:
            lo = rng.uniform(0, 13_000)
            hi = lo + abs(rng.normalvariate(60, 40)) + 0.5
        out.append(RangeSubscription(Interval(lo, hi)))
    return out


def test_ext_range_subscription_matching(benchmark):
    rng = random.Random(1)
    events = [rng.uniform(0, 13_000) for __ in range(EVENTS)]

    series = {
        name: Series(name)
        for name in ("ITREE", "SSI", "HOTSPOT", "SSI groups")
    }
    ssi_clustered = None
    for clustered in (0.2, 0.6, 1.0):
        subscriptions = make_subscriptions(clustered, seed=int(clustered * 100))
        indexes = {
            "ITREE": IntervalTreeRangeIndex(),
            "SSI": SSIRangeIndex(),
            "HOTSPOT": HotspotRangeIndex(alpha=0.005),
        }
        for name, index in indexes.items():
            for subscription in subscriptions:
                index.add(subscription)
            series[name].add(
                round(clustered * 100), measure_throughput(index.match, events)
            )
        series["SSI groups"].add(round(clustered * 100), indexes["SSI"].group_count)
        if clustered == 1.0:
            ssi_clustered = indexes["SSI"]
    print_figure(
        "Extension: range-subscription matching (events/s) vs % clustered",
        "% clustered",
        series.values(),
    )

    # Fully clustered: SSI's O(tau + k) wins clearly.
    assert series["SSI"].y_at(100) > 1.5 * series["ITREE"].y_at(100)
    # The group count is what drives it: far below the subscription count.
    assert series["SSI groups"].y_at(100) <= 2 * CLUSTERS
    # The classic index is indifferent to clusteredness.
    ys = series["ITREE"].ys
    assert max(ys) < 4.0 * min(ys)
    # Pure SSI loses badly on scattered subscriptions (tau ~ n); the
    # hotspot-filtered index stays competitive at both ends.
    assert series["SSI"].y_at(20) < 0.25 * series["ITREE"].y_at(20)
    assert series["HOTSPOT"].y_at(20) > 0.3 * series["ITREE"].y_at(20)
    assert series["HOTSPOT"].y_at(100) > series["ITREE"].y_at(100)

    benchmark(lambda: ssi_clustered.match(events[0]))
