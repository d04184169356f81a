"""Tracing tax: the instrumented runtime with a recording RingTracer must
stay within 10% of the identical NULL_TRACER configuration.

The null path is the contract the wiring depends on: every instrumented
method pays one attribute load, one ``span()`` call returning a shared
singleton, and an inert ``with`` block — no clock reads, no allocation.
The recording path adds two ``perf_counter_ns`` reads, one frozen
dataclass, and one lock acquisition per span; spans are per *batch* and
per shard (one ``shard.apply`` holding at most two ``fastpath.run``, not
per event), so at batch size 64 the per-event cost is a twentieth of a
span per shard.  Runs interleave best-of-3 so ambient machine noise hits
both configurations equally.
"""

from __future__ import annotations

import time

from conftest import BASE

from repro.engine.events import DataEvent, QueryEvent
from repro.obs.tracing import NULL_TRACER, RingTracer
from repro.runtime.pipeline import EventPipeline
from repro.runtime.replay import StreamProfile, generate_mixed_stream

ALPHA = 0.01
N_QUERIES = 8_000
N_EVENTS = 2_000
BATCH_SIZE = 64
REPEATS = 3


def build_workload():
    profile = StreamProfile(
        n_events=N_EVENTS,
        n_initial_queries=N_QUERIES,
        band_fraction=0.0,
        query_event_fraction=0.0,
        delete_fraction=0.3,
        churn=0.5,
        min_delete_age=64,
        recent_window=32,
        seed=1106,
    )
    stream = generate_mixed_stream(profile, BASE.scaled())
    queries = [e.query for e in stream if isinstance(e, QueryEvent)]
    data_events = [e for e in stream if isinstance(e, DataEvent)]
    return queries, data_events


def test_tracing_overhead_under_ten_percent():
    queries, data_events = build_workload()

    def run_once(tracer):
        pipeline = EventPipeline(
            num_shards=4,
            alpha=ALPHA,
            batch_size=BATCH_SIZE,
            mode="inline",
            tracer=tracer,
        )
        for query in queries:
            pipeline.subscribe(query)
        start = time.perf_counter()
        pipeline.run(data_events)
        rate = len(data_events) / (time.perf_counter() - start)
        pipeline.close()
        return rate

    # Warmup both paths once, then interleave timed repeats.
    run_once(NULL_TRACER)
    run_once(RingTracer())
    null_best = 0.0
    ring_best = 0.0
    spans = 0
    for _ in range(REPEATS):
        null_best = max(null_best, run_once(NULL_TRACER))
        tracer = RingTracer()
        ring_best = max(ring_best, run_once(tracer))
        spans = tracer.recorded
    print(
        f"tracing tax at B={BATCH_SIZE}: {ring_best:,.0f} vs {null_best:,.0f} "
        f"events/s ({ring_best / null_best:.2f}x, {spans} spans/run)"
    )
    assert spans > 0, "RingTracer run recorded no spans — wiring is dead"
    assert ring_best >= 0.9 * null_best, (
        f"tracing overhead exceeds 10%: {ring_best:,.0f} vs {null_best:,.0f} "
        f"events/s ({ring_best / null_best:.2f}x)"
    )
