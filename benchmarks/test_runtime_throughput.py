"""Runtime throughput: unsharded facade vs sharded+batched pipeline.

Sweeps shard counts K in {1, 4, 8} x batch sizes {1, 32, 256} over a Table 1
select-join workload (the paper benchmarks the two query templates
separately; Figures 7/8 are the select-join runs) with delete churn, and
compares events/second against the unsharded ``ContinuousQuerySystem``
replaying the same stream one event at a time.

Why sharding wins: the engine's S-arrival path scans every select-join
subscription (``process_s`` is O(m)), while the runtime's C-partitioned
select plane probes a single shard per S event — the router acts as a
coarse partition index over ``rangeC``.  The win therefore grows with the
subscription count while the per-event routing/broadcast overhead stays
O(K), so the sweep runs at a paper-like query population (Table 1 defaults
to 10k queries).  With update churn a row is often inserted and deleted
inside one batch, which the shards answer by striking it from the events
outside its lifetime.  The acceptance bar
is the best sharded+batched configuration beating the unsharded baseline
by >= 2x.
"""

from __future__ import annotations

import time

from conftest import BASE

from repro.bench.harness import Series, print_figure
from repro.engine.events import DataEvent, QueryEvent
from repro.engine.system import ContinuousQuerySystem
from repro.engine.events import replay_data_events
from repro.runtime.pipeline import EventPipeline
from repro.runtime.replay import StreamProfile, generate_mixed_stream

SHARDS = [1, 4, 8]
BATCHES = [1, 32, 256]
ALPHA = 0.01
N_QUERIES = 8_000
N_EVENTS = 2_000


def build_workload():
    profile = StreamProfile(
        n_events=N_EVENTS,
        n_initial_queries=N_QUERIES,
        band_fraction=0.0,          # select-join runs, as in Figures 7/8
        query_event_fraction=0.0,   # measure the data path only
        delete_fraction=0.3,
        churn=0.5,                  # half the deletes hit fresh rows in their batch
        min_delete_age=64,
        recent_window=32,
        seed=1106,
    )
    stream = generate_mixed_stream(profile, BASE.scaled())
    queries = [e.query for e in stream if isinstance(e, QueryEvent)]
    data_events = [e for e in stream if isinstance(e, DataEvent)]
    return queries, data_events


def test_runtime_throughput_grid():
    queries, data_events = build_workload()

    system = ContinuousQuerySystem(alpha=ALPHA)
    for query in queries:
        system.subscribe(query)
    start = time.perf_counter()
    replay_data_events(data_events, system)
    baseline = len(data_events) / (time.perf_counter() - start)

    series = []
    best = 0.0
    best_config = None
    for num_shards in SHARDS:
        line = Series(f"K={num_shards}")
        for batch_size in BATCHES:
            pipeline = EventPipeline(
                num_shards=num_shards,
                alpha=ALPHA,
                batch_size=batch_size,
                mode="inline",
            )
            for query in queries:
                pipeline.subscribe(query)
            start = time.perf_counter()
            pipeline.run(data_events)
            rate = len(data_events) / (time.perf_counter() - start)
            pipeline.close()
            line.add(batch_size, rate)
            if rate > best:
                best, best_config = rate, (num_shards, batch_size)
        series.append(line)

    unsharded = Series("unsharded")
    for batch_size in BATCHES:
        unsharded.add(batch_size, baseline)
    print_figure(
        "Runtime throughput: events/sec vs batch size (inline execution)",
        "batch",
        [unsharded, *series],
    )
    print(
        f"best sharded+batched config K={best_config[0]} B={best_config[1]}: "
        f"{best:,.0f} events/s = {best / baseline:.2f}x unsharded ({baseline:,.0f})"
    )
    # Acceptance: batched sharded mode >= 2x unsharded single-event replay.
    assert best >= 2.0 * baseline, (
        f"expected >=2x speedup, got {best / baseline:.2f}x "
        f"({best:,.0f} vs {baseline:,.0f} events/s)"
    )


def test_durable_wal_overhead(tmp_path):
    """Durability tax: the WAL-logged serve path (``fsync=batch``) must stay
    within 25% of the identical no-WAL configuration.

    The ``batch`` policy amortizes one fsync per drained micro-batch, so the
    cell runs at batch size 256 (~8 fsyncs for the whole stream); encoding
    and buffered appends are the remaining per-event cost.
    """
    from repro.durability import DurabilityManager

    queries, data_events = build_workload()
    batch_size = 256

    def run_once(durability):
        pipeline = EventPipeline(
            num_shards=4,
            alpha=ALPHA,
            batch_size=batch_size,
            mode="inline",
            durability=durability,
        )
        if durability is not None:
            durability.attach(pipeline)
        for query in queries:
            pipeline.subscribe(query)
        start = time.perf_counter()
        pipeline.run(data_events)
        rate = len(data_events) / (time.perf_counter() - start)
        pipeline.close()
        return rate

    plain = run_once(None)
    durable = run_once(DurabilityManager(tmp_path / "wal", fsync="batch"))
    print(
        f"durability tax at B={batch_size}: {durable:,.0f} vs {plain:,.0f} "
        f"events/s ({durable / plain:.2f}x)"
    )
    assert durable >= 0.75 * plain, (
        f"WAL overhead exceeds 25%: {durable:,.0f} vs {plain:,.0f} events/s "
        f"({durable / plain:.2f}x)"
    )
