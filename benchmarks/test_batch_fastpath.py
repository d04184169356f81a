"""Batch fast path: batched vs per-event band-join probe throughput.

The columnar batch fast path (``BJSSI.process_r_batch``) amortizes the
per-group B-tree probes and window enumerations of a micro-batch into
vectorized column scans.  On the Figure 10(i) workload's largest point
(20k band joins, tau ~ 60) it must beat the per-event probe by at least
3x for some batch size >= 64, and by > 1.3x at every batch size.
"""

from conftest import band_queries_with_tau, load_queries, r_events
from test_fig10i_bj_scaling import band_params

from repro.bench.harness import (
    Series,
    measure_batched_throughput,
    measure_throughput,
    print_figure,
)
from repro.operators.band_join import BJSSI
from repro.workload import make_tables

QUERIES, TAU = 20_000, 60  # the last point of Figure 10(i)'s sweep
EVENTS = 200
BATCH_SIZES = (16, 64, 256)
ROUNDS = 5


def test_batch_fastpath_speedup(benchmark):
    params = band_params()
    table_r, table_s = make_tables(params)
    events = r_events(params, EVENTS, table_r)
    strategy = BJSSI(table_s, table_r)
    load_queries(strategy, band_queries_with_tau(params, QUERIES, TAU, seed=50 + QUERIES))

    # Guard the timing with a delta-identity check on the first chunk.
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
        "Batch fast path: band-join probe throughput vs batch size (events/s)",
        "batch",
        [
            Series("per-event", list(BATCH_SIZES), [per_event] * len(BATCH_SIZES)),
            Series("batched", list(BATCH_SIZES), list(batched.values())),
        ],
    )

    speedups = {size: eps / per_event for size, eps in batched.items()}
    # The acceptance bar: >= 3x over per-event at some batch size >= 64
    # (taking the best qualifying size damps noise on loaded machines).
    best = max(ratio for size, ratio in speedups.items() if size >= 64)
    assert best >= 3.0, f"batch fast path speedup {best:.2f}x < 3x at batch >= 64: {speedups}"
    # Every measured batch size must clear a basic sanity floor.
    assert all(ratio > 1.3 for ratio in speedups.values()), speedups

    # Per-op number for pytest-benchmark's table: one 64-event batch.
    batch = events[:64]
    benchmark(lambda: strategy.process_r_batch(batch))
