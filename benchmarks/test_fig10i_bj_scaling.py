"""Figure 10(i): band-join throughput vs number of continuous queries.

Paper setup: 50 to 500,000 band joins, the stabbing number growing from ~10
to ~60 along the sweep.  Reported shape: BJ-Q collapses on large query
counts; BJ-MJ is stable while the sorted-table scan dominates, then decays
once the query count catches up; BJ-D is insensitive to the query count but
crushed by the base-table scan; BJ-SSI outperforms everything by orders of
magnitude and degrades only mildly.
"""

import dataclasses

from conftest import BASE, band_queries_with_tau, load_queries, r_events

from repro.bench.harness import Series, assert_dominates, measure_throughput, print_figure
from repro.operators.band_join import make_band_strategies
from repro.workload import make_tables

SWEEP = [(50, 10), (500, 20), (5_000, 40), (20_000, 60)]  # (#queries, tau)
EVENTS = 15


def band_params():
    """Band-join runs use real-valued keys (no equality-collision grid), a
    broad S.B spread, and narrow band windows so the per-event output stays
    moderate."""
    return dataclasses.replace(
        BASE.scaled(),
        integer_valued=False,
        join_key_grid=None,
        s_b_sigma=3_500.0,
        band_len_mean=0.02,
        band_len_sigma=0.005,
    )


def test_fig10i_band_join_scaling(benchmark):
    params = band_params()
    table_r, table_s = make_tables(params)
    events = r_events(params, EVENTS, table_r)

    series = {name: Series(name) for name in ("BJ-Q", "BJ-D", "BJ-MJ", "BJ-SSI")}
    last_ssi = None
    for count, tau in SWEEP:
        queries = band_queries_with_tau(params, count, tau, seed=50 + count)
        strategies = make_band_strategies(table_s, table_r)
        for name, strategy in strategies.items():
            load_queries(strategy, queries)
            # process_r only probes, so the events replay: best of 3 keeps
            # a cold first pass or a scheduler stall out of the shape.
            series[name].add(
                count, measure_throughput(strategy.process_r, events, repeats=3)
            )
        last_ssi = strategies["BJ-SSI"]
    print_figure(
        "Figure 10(i): band-join throughput vs #queries (events/s)",
        "#queries",
        series.values(),
    )

    top = SWEEP[-1][0]
    # BJ-SSI always outperforms the other approaches, by a wide margin at
    # scale ("orders of magnitude" in the paper).
    for name in ("BJ-Q", "BJ-D", "BJ-MJ"):
        assert_dominates(series["BJ-SSI"], series[name], factor=1.0)
        assert_dominates(series["BJ-SSI"], series[name], factor=8.0, at=[top])
    # BJ-Q completely breaks down on a large number of queries.
    assert series["BJ-Q"].y_at(SWEEP[0][0]) > 20 * series["BJ-Q"].y_at(top)
    # BJ-D is dominated by the base-table scan and hence roughly flat.
    bj_d = series["BJ-D"].ys
    assert max(bj_d) < 4.0 * min(bj_d)
    # BJ-MJ decays once the query count reaches the table size's order.
    assert series["BJ-MJ"].y_at(SWEEP[0][0]) > 3 * series["BJ-MJ"].y_at(top)

    benchmark(lambda: last_ssi.process_r(events[0]))
