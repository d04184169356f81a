"""Batch fast path: batched vs per-event probe throughput, on both planes.

The columnar batch fast path amortizes the per-group B-tree probes and
window enumerations of a micro-batch into column scans.

* **Band joins** (``BJSSI.process_r_batch``): on the Figure 10(i)
  workload's largest point (20k band joins, tau ~ 60) it must beat the
  per-event probe by at least 4.2x for some batch size >= 64, and by
  > 1.3x at every batch size.  Ten runs on a shared 2-vCPU host measured
  5.2x to 8.0x (median 5.9x); the floor keeps the headroom the former 3x
  floor had below its own lowest run there (3.0 / 3.66 = 0.82 of 5.2x).
* **Select joins** (``HotspotSelectJoinProcessor.process_r_batch``): on a
  clustered population (4k queries, 80% of rangeC on 20 Zipf anchors, the
  rest uniform) it must beat the per-event probe by at least 2.5x for some
  batch size >= 64 (about half the 5x measured on a 2-vCPU host), and by
  > 1.3x at every batch size.
"""

import random

from conftest import (
    BASE,
    band_queries_with_tau,
    load_queries,
    r_events,
    select_queries_with_tau,
)
from test_fig10i_bj_scaling import band_params

from repro.bench.harness import (
    Series,
    measure_batched_throughput,
    measure_throughput,
    print_figure,
)
from repro.operators.band_join import BJSSI
from repro.operators.hotspot_processor import HotspotSelectJoinProcessor
from repro.workload import make_select_join_queries, make_tables

QUERIES, TAU = 20_000, 60  # the last point of Figure 10(i)'s sweep
SELECT_QUERIES, SELECT_ANCHORS, SELECT_ALPHA = 4_000, 20, 0.01
EVENTS = 200
BATCH_SIZES = (16, 64, 256)
ROUNDS = 5


def measure_speedups(strategy, events, title):
    """Batched over per-event throughput at every batch size, after a
    delta-identity check on the first chunk."""
    probe = events[: max(BATCH_SIZES)]
    assert strategy.process_r_batch(probe) == [strategy.process_r(r) for r in probe], (
        "batch fast path diverged from the per-event probe"
    )

    # Probes install no state, so a warmup pass and best-of-rounds are
    # sound.  The rounds interleave (per-event, then each batch size) so
    # scheduler/frequency noise hits both paths alike.
    per_event = 0.0
    batched = dict.fromkeys(BATCH_SIZES, 0.0)
    for round_no in range(ROUNDS):
        warmup = 1 if round_no == 0 else 0
        per_event = max(per_event, measure_throughput(strategy.process_r, events, warmup=warmup))
        for size in BATCH_SIZES:
            batched[size] = max(
                batched[size],
                measure_batched_throughput(
                    strategy.process_r_batch, events, batch_size=size, warmup=warmup
                ),
            )
    print_figure(
        title,
        "batch",
        [
            Series("per-event", list(BATCH_SIZES), [per_event] * len(BATCH_SIZES)),
            Series("batched", list(BATCH_SIZES), list(batched.values())),
        ],
    )
    return {size: eps / per_event for size, eps in batched.items()}


def assert_speedup_floor(speedups, floor):
    # The acceptance bar at some batch size >= 64 (taking the best
    # qualifying size damps noise on loaded machines).
    best = max(ratio for size, ratio in speedups.items() if size >= 64)
    assert best >= floor, (
        f"batch fast path speedup {best:.2f}x < {floor}x at batch >= 64: {speedups}"
    )
    # Every measured batch size must clear a basic sanity floor.
    assert all(ratio > 1.3 for ratio in speedups.values()), speedups


def test_batch_fastpath_speedup(benchmark):
    params = band_params()
    table_r, table_s = make_tables(params)
    events = r_events(params, EVENTS, table_r)
    strategy = BJSSI(table_s, table_r)
    load_queries(strategy, band_queries_with_tau(params, QUERIES, TAU, seed=50 + QUERIES))

    speedups = measure_speedups(
        strategy, events, "Batch fast path: band-join probe throughput vs batch size (events/s)"
    )
    assert_speedup_floor(speedups, 4.2)

    # Per-op number for pytest-benchmark's table: one 64-event batch.
    batch = events[:64]
    benchmark(lambda: strategy.process_r_batch(batch))


def test_select_batch_fastpath_speedup():
    params = BASE.scaled()
    table_r, table_s = make_tables(params)
    events = r_events(params, EVENTS, table_r)
    processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=SELECT_ALPHA)
    clustered = select_queries_with_tau(
        params, SELECT_QUERIES * 4 // 5, SELECT_ANCHORS, seed=70 + SELECT_QUERIES
    )
    uniform = make_select_join_queries(
        params, SELECT_QUERIES // 5, random.Random(71 + SELECT_QUERIES)
    )
    load_queries(processor, clustered + uniform)
    # Both halves of the R-side probe are live: hot groups and a scattered remainder.
    assert processor.tracker.hotspot_groups and processor._hot.scattered

    speedups = measure_speedups(
        processor,
        events,
        "Batch fast path: select-join hotspot probe throughput vs batch size (events/s)",
    )
    assert_speedup_floor(speedups, 2.5)
