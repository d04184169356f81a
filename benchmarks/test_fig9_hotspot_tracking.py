"""Figure 9: TRADITIONAL vs HOTSPOT-BASED processing time per event, over
workloads of increasing clusteredness.

The paper generates ten workloads whose hotspots cover 10%..100% of 500,000
queries (alpha ~ 0.1% so at most ~500 hotspot groups) and plots average
processing time per event.  Reported shape: TRADITIONAL (plain
SJ-SelectFirst) is flat across workloads; HOTSPOT-BASED improves roughly
linearly with hotspot coverage and wins decisively on clustered workloads.
"""

import random

from conftest import BASE, r_events

from repro.bench.harness import Series, measure_event_time_us, print_figure
from repro.core.intervals import Interval
from repro.engine.queries import SelectJoinQuery
from repro.operators.hotspot_processor import HotspotSelectJoinProcessor
from repro.operators.select_join import SJSelectFirst
from repro.workload import ZipfSampler, make_tables, spread_anchors

QUERIES = 20_000
HOT_ANCHORS = 20
ALPHA = 0.004  # at most 500 hotspot groups, as in the paper's "order of 0.1%"
COVERAGES = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
EVENTS = 20


def make_queries(params, hot_fraction, count, seed):
    """Queries whose rangeC clusters on anchors with probability
    ``hot_fraction`` and is scattered uniformly otherwise."""
    rng = random.Random(seed)
    anchors = spread_anchors(params, HOT_ANCHORS)
    sampler = ZipfSampler(HOT_ANCHORS, 1.0)
    queries = []
    for __ in range(count):
        a_lo = rng.uniform(params.domain_lo, params.domain_hi - 250)
        range_a = Interval(a_lo, a_lo + abs(rng.normalvariate(200, 50)) + 1)
        if rng.random() < hot_fraction:
            anchor = anchors[sampler.sample(rng)]
            lo = max(params.domain_lo, anchor - abs(rng.normalvariate(4, 1)) - 1)
            hi = min(params.domain_hi, anchor + abs(rng.normalvariate(4, 1)) + 1)
            range_c = Interval(lo, hi)
        else:
            c_lo = rng.uniform(params.domain_lo, params.domain_hi - 20)
            range_c = Interval(c_lo, c_lo + abs(rng.normalvariate(8, 2)) + 1)
        queries.append(SelectJoinQuery(range_a, range_c))
    return queries


def test_fig9_hotspot_based_processing(benchmark):
    params = BASE.scaled()
    table_r, table_s = make_tables(params)
    events = r_events(params, EVENTS, table_r)

    traditional = Series("TRADITIONAL")
    hotspot_based = Series("HOTSPOT-BASED")
    coverages_measured = []
    last_processor = None
    for target in COVERAGES:
        queries = make_queries(params, target, QUERIES, seed=900 + int(target * 100))
        trad = SJSelectFirst(table_s, table_r)
        hot = HotspotSelectJoinProcessor(table_s, table_r, alpha=ALPHA)
        for query in queries:
            trad.add_query(query)
            hot.add_query(query)
        coverage = round(100 * hot.hotspot_coverage)
        coverages_measured.append(hot.hotspot_coverage)
        for event in events:  # warmup pass before timing
            trad.process_r(event)
            hot.process_r(event)
        traditional.add(coverage, measure_event_time_us(trad.process_r, events, repeats=2))
        hotspot_based.add(coverage, measure_event_time_us(hot.process_r, events, repeats=2))
        last_processor = hot
    print_figure(
        "Figure 9: processing time per event vs % intervals in hotspots (us)",
        "% hot",
        [traditional, hotspot_based],
        y_format="{:,.1f}",
    )

    # The workload sweep actually moved the hotspot coverage.
    assert coverages_measured[-1] > 0.9
    assert coverages_measured[0] < 0.45
    # TRADITIONAL is indifferent to clusteredness.
    assert max(traditional.ys) < 3.0 * min(traditional.ys)
    # HOTSPOT-BASED improves with coverage and wins clearly when clustered.
    assert hotspot_based.ys[-1] < 0.65 * hotspot_based.ys[0]
    assert hotspot_based.ys[-1] < 0.65 * traditional.ys[-1]

    benchmark(lambda: last_processor.process_r(events[0]))
