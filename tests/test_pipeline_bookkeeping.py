"""Bookkeeping on the data path is per batch, not per event.

Two halves of one contract (``docs/RUNTIME.md`` § metrics):

* **the rule, as a count** — registry look-ups by name and locked
  ``Histogram.observe`` calls made while data events flow are bounded by a
  small constant times the number of *batches*, never by the number of
  events (host-speed independent: it counts calls, not seconds);
* **equivalence** — folding per batch loses nothing: the final snapshot of
  every pipeline metric equals what one recording per event gives, worked
  out here from the stream and the batch boundaries by a model of the
  ingress queue — and so does a shm
  worker's ``worker/e2e/ingest_to_apply_us``, shipped to the parent.

The subscription-write path follows the same rule one level down: a hot-item
counter takes one increment per tracker call, and its total still counts
every item that entered or left a hotspot group.
"""

import random
import re
import sys
from collections import Counter as Tally

import pytest

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.intervals import Interval
from repro.core.ssi import HotspotIndex
from repro.durability import DurabilityManager
from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.table import RTuple, STuple
from repro.obs.tracing import RingTracer
from repro.runtime.metrics import Counter, Histogram, MetricsRegistry
from repro.runtime.pipeline import EventPipeline
from repro.runtime.sharding import ShardGroup, scaled_alpha
from repro.runtime.transport import frames, worker

def seeded_stream(seed, n, *, min_age=0):
    """``n`` data events: inserts into both relations and deletes of rows
    inserted at least ``min_age`` events earlier (0 lets a delete meet its
    own insert in one batch)."""
    rng = random.Random(seed)
    live = []  # (position inserted, relation, row)
    events = []
    for position in range(n):
        old = [item for item in live if position - item[0] >= min_age]
        if old and rng.random() < 0.3:
            item = rng.choice(old)
            live.remove(item)
            events.append(DataEvent(EventKind.DELETE, item[1], item[2]))
        else:
            b = float(rng.randrange(0, 200))
            if rng.random() < 0.5:
                relation, row = "R", RTuple(position, rng.uniform(0, 10_000), b)
            else:
                relation, row = "S", STuple(position, b, rng.uniform(0, 10_000))
            live.append((position, relation, row))
            events.append(DataEvent(EventKind.INSERT, relation, row))
    return events


def subscribe_population(pipeline):
    """Six subscriptions, applied before the stream starts: pending, they
    would share its first batch and move every queue depth the per-event
    model below predicts."""
    rng = random.Random(11)
    for qid in range(4):
        lo_a, lo_c = rng.uniform(0, 6_000), rng.uniform(0, 6_000)
        pipeline.subscribe(
            SelectJoinQuery(
                Interval(lo_a, lo_a + 4_000), Interval(lo_c, lo_c + 4_000), qid=qid
            )
        )
    for qid in range(4, 6):
        pipeline.subscribe(BandJoinQuery(Interval(-3.0, 3.0 + qid), qid=qid))
    pipeline.drain()
    return 6


def drive(pipeline, events):
    for event in events:
        pipeline.submit(event)


def per_event_model(events, *, batch_size):
    """What the ingress queue does to ``events``, one event at a time.

    Returns the queue depth after every submitted event (what a per-event
    ``queue_depth.observe`` records).  A flush always empties the queue
    here: a submit flushes once ``batch_size`` events are pending, so it
    never holds more than a batch.
    """
    depths, queue = [], 0
    for __ in events:
        queue += 1
        depths.append(queue)
        if queue >= batch_size:
            queue = 0
    return depths


def observed_per_event(values):
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram.snapshot()


# -- the rule, as a count -------------------------------------------------------


@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
def test_bookkeeping_calls_scale_with_batches_not_events(durable, tmp_path, monkeypatch):
    calls = {"lookup": 0, "observe": 0}

    def counted(kind, original):
        def wrapper(self, *args):
            calls[kind] += 1
            return original(self, *args)

        return wrapper

    monkeypatch.setattr(MetricsRegistry, "counter", counted("lookup", MetricsRegistry.counter))
    monkeypatch.setattr(MetricsRegistry, "histogram", counted("lookup", MetricsRegistry.histogram))
    monkeypatch.setattr(Histogram, "observe", counted("observe", Histogram.observe))

    registry = MetricsRegistry()
    manager = DurabilityManager(tmp_path, fsync="never", metrics=registry) if durable else None
    events = seeded_stream(5, 2_000)
    pipeline = EventPipeline(
        num_shards=2, batch_size=64, mode="inline", metrics=registry, durability=manager
    )
    try:
        if manager is not None:
            manager.attach(pipeline)
        subscribe_population(pipeline)
        population_batches = registry.counter("pipeline/batches").value
        calls["lookup"] = calls["observe"] = 0
        drive(pipeline, events)
        pipeline.drain()
        lookups, observes = calls["lookup"], calls["observe"]
    finally:
        pipeline.close()
    counters = registry.snapshot()["counters"]
    batches = counters["pipeline/batches"] - population_batches
    assert counters["pipeline/events_submitted"] == 2_000
    assert 2_000 // 64 <= batches <= 2_000 // 64 + 1
    # Per batch: a batch_us per shard and one batch_size; per event: nothing.
    assert observes <= 4 * batches + 8, (observes, batches)
    assert lookups <= 4 * batches + 8, (lookups, batches)


# -- equivalence with per-event recording ------------------------------------------

SCENARIOS = {
    # name: (pipeline kwargs, stream kwargs)
    "batches-of-64": (dict(batch_size=64), dict(min_age=0)),
    "batches-of-1": (dict(batch_size=1), dict(min_age=0)),
    "batches-of-5": (dict(batch_size=5), dict(min_age=8)),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_final_snapshot_equals_per_event_recording(name):
    pipeline_kwargs, stream_kwargs = SCENARIOS[name]
    events = seeded_stream(9, 1_200, **stream_kwargs)
    batch_size = pipeline_kwargs["batch_size"]
    depths = per_event_model(events, batch_size=batch_size)
    registry = MetricsRegistry()
    with EventPipeline(num_shards=2, mode="inline", metrics=registry, **pipeline_kwargs) as pipeline:
        subscribe_population(pipeline)
        drive(pipeline, events)
        pipeline.drain()
    snap = registry.snapshot()
    counters, histograms = snap["counters"], snap["histograms"]
    assert histograms["pipeline/queue_depth"] == observed_per_event(depths)
    # The bound the queue rests on: a submit that fills a batch flushes it.
    assert histograms["pipeline/queue_depth"]["max"] <= batch_size
    assert counters["pipeline/events_submitted"] == 1_200
    # Every submitted event is applied, an in-batch insert+delete pair too.
    assert counters["pipeline/events_applied"] == 1_200
    assert histograms["pipeline/e2e_us"]["count"] == 1_200
    assert histograms["pipeline/batch_size"]["count"] == counters["pipeline/batches"]
    assert histograms["pipeline/batch_size"]["sum"] == 1_200
    # Inline, num_shards=2 builds one shard, which holds every query: it
    # counts the events and times the batches.
    assert counters["shard/0/events"] == 1_200
    assert histograms["shard/0/batch_us"]["count"] == counters["pipeline/batches"]
    assert "shard/1/events" not in counters


def test_a_shard_without_queries_records_no_work():
    """Inline, the one shard holds no query until the population is
    subscribed: the 320 events before count nowhere, time no batch and
    open no ``shard.apply`` span, while each of the 600 after does all
    three."""
    registry = MetricsRegistry()
    tracer = RingTracer()
    stream = seeded_stream(4, 920, min_age=1_000)  # inserts only
    with EventPipeline(
        num_shards=4, batch_size=32, mode="inline", metrics=registry, tracer=tracer
    ) as pipeline:
        drive(pipeline, stream[:320])
        pipeline.drain()
        idle = registry.counter("pipeline/batches").value
        assert idle == 10
        subscribe_population(pipeline)
        drive(pipeline, stream[320:])
        pipeline.drain()
        busy = registry.counter("pipeline/batches").value - idle
    snap = registry.snapshot()
    counters, histograms = snap["counters"], snap["histograms"]
    assert counters["pipeline/results_produced"] > 0
    assert counters["pipeline/events_applied"] == 920
    assert counters["shard/0/events"] == 600
    assert histograms["shard/0/batch_us"]["count"] == busy
    applies = Tally(
        (span.args or {}).get("shard") for span in tracer.snapshot() if span.name == "shard.apply"
    )
    assert set(applies) == {0} and applies[0] >= 600 // 32


@pytest.mark.skipif(sys.platform.startswith("win"), reason="fork-based workers")
def test_a_worker_without_queries_records_no_work():
    """In ``process-shm`` at K = 3 one band lives on shard 1: a worker
    whose shard holds no query (shard 2) answers each batch with a NaN
    elapsed and the parent leaves it out, as it leaves out its own shard
    0, and the worker times no entry it did not apply: its
    ingest-to-apply histogram stays empty, while shard 1's holds one
    sample per row."""
    registry = MetricsRegistry()
    band = BandJoinQuery(Interval(-3.0, 3.0), qid=1)
    rows = [DataEvent(EventKind.INSERT, "R", RTuple(i, 1.0, float(i))) for i in range(64)]
    with EventPipeline(
        num_shards=3, batch_size=8, mode="process-shm", metrics=registry
    ) as pipeline:
        assert pipeline.router.shards_for_query(band) == [1]
        pipeline.subscribe(band)
        pipeline.drain()
        drive(pipeline, rows)
        pipeline.drain()
        pipeline._workers.drain_telemetry()
        histograms = registry.snapshot()["histograms"]
        e2e = {
            index: histograms.get(f"shard/{index}/worker/e2e/ingest_to_apply_us", {}).get("count", 0)
            for index in (1, 2)
        }
        assert e2e == {1: 64, 2: 0}
    snap = registry.snapshot()
    counters, histograms = snap["counters"], snap["histograms"]
    assert counters["shard/1/events"] == 64
    # The subscription's batch and the eight batches of rows.
    assert histograms["shard/1/batch_us"]["count"] == counters["pipeline/batches"] == 9
    for index in (0, 2):
        assert counters[f"shard/{index}/events"] == 0
        assert histograms[f"shard/{index}/batch_us"]["count"] == 0


def test_worker_e2e_fold_equals_per_event_recording(monkeypatch):
    """A worker folds each batch's ingest-to-apply latencies into
    ``worker/e2e/ingest_to_apply_us`` with one ``merge_delta``: on a clock
    the test controls, the snapshot equals one ``observe`` per data entry,
    and a query entry (stamp 0) is not timed."""
    observes = []
    monkeypatch.setattr(Histogram, "observe", lambda self, value: observes.append(value))
    monkeypatch.setattr(worker.time, "perf_counter_ns", lambda: 90_000_000)
    stamps = [1, 60_000_000, 0, 89_999_000, 80_000_000]
    entries = [
        (i, DataEvent(EventKind.INSERT, "R", RTuple(i, 1.0, 2.0)), -1) for i in range(4)
    ]
    query = BandJoinQuery(Interval(-1.0, 1.0), qid=7)
    entries.insert(2, (-1, QueryEvent(EventKind.INSERT, query), [0]))
    registry = MetricsRegistry()
    e2e = registry.histogram("worker/e2e/ingest_to_apply_us")
    batch = frames.DecodedBatch(entries=entries, ingest_ns=tuple(stamps))
    worker._apply_batch(ShardGroup(0), batch, worker._BatchTracer(None), e2e)
    assert observes == []  # one fold, no per-entry observe
    monkeypatch.undo()
    want = [(90_000_000 - stamp) / 1_000.0 for stamp in stamps if stamp]
    assert e2e.snapshot() == observed_per_event(want)


@pytest.mark.skipif(sys.platform.startswith("win"), reason="fork-based workers")
def test_worker_e2e_ships_one_sample_per_data_entry():
    """In ``process-shm`` the folded histogram reaches the parent after
    ``drain_telemetry()`` with one sample per data event per worker
    (shard 0 runs in the parent and has none)."""
    registry = MetricsRegistry()
    events = seeded_stream(4, 300, min_age=400)  # inserts only
    with EventPipeline(
        num_shards=2, batch_size=64, mode="process-shm", metrics=registry
    ) as pipeline:
        subscribe_population(pipeline)
        drive(pipeline, events)
        pipeline.drain()
        pipeline._workers.drain_telemetry()
        histograms = registry.snapshot()["histograms"]
        merged = histograms["shard/1/worker/e2e/ingest_to_apply_us"]
        assert merged["count"] == len(events)
        assert sum(n for __, n in merged["buckets"]) == len(events)
        assert 0.0 < merged["min"] <= merged["max"]
        assert "shard/0/worker/e2e/ingest_to_apply_us" not in histograms


def test_pending_depths_appear_with_the_flush_that_covers_them():
    registry = MetricsRegistry()
    events = seeded_stream(3, 70, min_age=100)  # inserts only
    with EventPipeline(num_shards=2, batch_size=64, mode="inline", metrics=registry) as pipeline:
        drive(pipeline, events[:10])
        assert pipeline.pending == 10
        # A reader between two flushes sees the previous batch boundary ...
        assert registry.histogram("pipeline/queue_depth").count == 0
        # ... except for what is counted as it happens.
        assert registry.counter("pipeline/events_submitted").value == 10
        drive(pipeline, events[10:])
        assert pipeline.pending == 6
        assert registry.histogram("pipeline/queue_depth").count == 64
        pipeline.drain()
        assert registry.histogram("pipeline/queue_depth").snapshot() == observed_per_event(
            [*range(1, 65), *range(1, 7)]
        )


def test_wal_append_seconds_samples_once_per_sync(tmp_path):
    registry = MetricsRegistry()
    manager = DurabilityManager(tmp_path, fsync="never", metrics=registry)
    events = seeded_stream(3, 70, min_age=100)
    appends = registry.histogram("durability/wal_append_seconds")
    batches = registry.counter("pipeline/batches")
    pipeline = EventPipeline(
        num_shards=2, batch_size=64, mode="inline", metrics=registry, durability=manager
    )
    try:
        manager.attach(pipeline)
        subscriptions = subscribe_population(pipeline)
        drive(pipeline, events)
        # Two flushes so far, the subscriptions' and the first 64 events':
        # the sync that opened each wrote its batch's records in one sample.
        assert batches.value == 2
        assert appends.count == 2
        assert manager.next_seq == subscriptions + 70
        assert manager.wal.buffered_bytes > 0  # the last 6 wait in the tail
    finally:
        pipeline.close()
    final = appends.snapshot()
    assert final["count"] == batches.value == 3  # the close's drain synced once more
    assert 0.0 < final["min"] <= final["max"] <= final["sum"]
    assert final["buckets"] == [[0, 3]]


# -- hot-item counters fold per tracker call ---------------------------------------


def churn_stream(seed, n):
    """``n`` events, nine in ten a subscription change: queries clustered on
    one anchor per plane (so hotspot groups form and take members) mixed
    with scattered ones, cancelled at random, among R and S inserts."""
    rng = random.Random(seed)
    live, events = [], []
    for qid in range(n):
        roll = rng.random()
        if roll < 0.1:
            b = float(rng.randrange(0, 50))
            if rng.random() < 0.5:
                row = RTuple(qid, rng.uniform(0, 10_000), b)
                events.append(DataEvent(EventKind.INSERT, "R", row))
            else:
                row = STuple(qid, b, rng.uniform(0, 10_000))
                events.append(DataEvent(EventKind.INSERT, "S", row))
        elif live and roll < 0.5:
            query = live.pop(rng.randrange(len(live)))
            events.append(QueryEvent(EventKind.DELETE, query))
        else:
            clustered = rng.random() < 0.7
            if rng.random() < 0.5:
                lo_a = rng.uniform(0, 8_000)
                mid = rng.normalvariate(2_500, 20) if clustered else rng.uniform(0, 10_000)
                query = SelectJoinQuery(
                    Interval(lo_a, lo_a + 2_000), Interval(mid - 60, mid + 60), qid=qid
                )
            else:
                mid = rng.normalvariate(0, 0.5) if clustered else rng.uniform(-50, 50)
                query = BandJoinQuery(Interval(mid - 3, mid + 3), qid=qid)
            live.append(query)
            events.append(QueryEvent(EventKind.INSERT, query))
    return events


def test_hot_item_counters_fold_once_per_tracker_call(monkeypatch):
    """Within one tracker call no hot-item counter is incremented twice,
    and the shard's counter totals equal the items its two processors
    wrote into (or struck from) their hot columns."""
    registry = MetricsRegistry()
    pipeline = EventPipeline(
        num_shards=2, batch_size=64, mode="inline", alpha=0.05, metrics=registry
    )
    (shard,) = pipeline.shards
    planes = [shard.band, shard.select]
    prefix = "shard/0/runtime/hotspot_items"
    names = [f"{prefix}_{end}" for end in ("added", "removed")]
    hot_counters = {id(registry.counter(name)) for name in names}

    incs = []
    original_inc = Counter.inc
    monkeypatch.setattr(
        Counter, "inc", lambda self, n=1: (incs.append(id(self)), original_inc(self, n))[1]
    )
    # The items each processor's hotspot index wrote into, or struck from,
    # its hot structures.
    entered, left = Tally(), Tally()
    for name, tally in (("on_hot_items_added", entered), ("on_hot_items_removed", left)):

        def columns_write(self, pairs, _original=getattr(HotspotIndex, name), _tally=tally):
            _tally[id(self)] += len(pairs)
            return _original(self, pairs)

        monkeypatch.setattr(HotspotIndex, name, columns_write)
    per_call = []  # the most increments any hot-item counter took in one call
    for name in ("insert", "delete"):

        def tracker_call(self, *items, _original=getattr(HotspotTracker, name)):
            start = len(incs)
            _original(self, *items)
            hits = Tally(counter for counter in incs[start:] if counter in hot_counters)
            per_call.append(max(hits.values(), default=0))

        monkeypatch.setattr(HotspotTracker, name, tracker_call)

    with pipeline:
        drive(pipeline, churn_stream(3, 3_000))
        pipeline.drain()
        for processor in planes:
            processor.validate()
    counters = registry.snapshot()["counters"]

    assert len(per_call) > 100 and max(per_call) == 1
    assert sum(entered.values()) > 100 and sum(left.values()) > 100
    hot = [id(p._hot) for p in planes]
    assert counters[f"{prefix}_added"] == sum(entered[p] for p in hot)
    assert counters[f"{prefix}_removed"] == sum(left[p] for p in hot)


def test_one_metric_namespace_in_every_mode(monkeypatch):
    """One churn stream through ``inline`` and ``process-shm`` at
    ``num_shards=2``: no metric of either mode is named outside the
    namespace roots, and each shard's ``shard/<i>/runtime/hotspot_*``
    counters equal those of a ``ShardGroup(i)`` built with the mode's
    thresholds and fed the batches the pipeline applied.  Both planes are
    placed per mode (inline, the one shard holds every query; under
    ``process-shm`` each process holds a C-slice and a midpoint slice), so
    a worker's churn is checked by value as it reaches the parent: the
    same batches without their band subscriptions give each shard's
    select-plane share, and the rest must be nonzero on every shard."""
    roots = re.compile(r"(pipeline|transport|durability|shard/\d+|obs/shard/\d+)/")
    applied = []
    original_apply = EventPipeline._apply
    monkeypatch.setattr(
        EventPipeline, "_apply",
        lambda self, entries, ingest_ns: (
            applied.append(list(entries)), original_apply(self, entries, ingest_ns)
        )[1],
    )

    def hotspot_counters(registry):
        return {name: value for name, value in registry.snapshot()["counters"].items()
                if "/runtime/hotspot_" in name}

    def reference(batches, shards):
        registry = MetricsRegistry()
        for index in range(shards):
            group = ShardGroup(
                index, sliced=shards > 1, alpha=scaled_alpha(0.05, shards), metrics=registry,
            )
            for entries in batches:
                group.apply_batch(entries)
        return hotspot_counters(registry)

    def is_band_change(entry):
        return entry[0] < 0 and isinstance(entry[1].query, BandJoinQuery)

    for mode, shards in (("inline", 1), ("process-shm", 2)):
        applied.clear()
        registry = MetricsRegistry()
        with EventPipeline(
            num_shards=2, batch_size=64, mode=mode, alpha=0.05, metrics=registry
        ) as pipeline:
            drive(pipeline, churn_stream(3, 1_500))
        snapshot = registry.snapshot()
        assert not [name for kind in snapshot.values() for name in kind
                    if not roots.match(name)]
        churn = hotspot_counters(registry)
        assert sorted(churn) == [
            f"shard/{index}/runtime/hotspot_{what}"
            for index in range(shards)
            for what in ("demotions", "items_added", "items_removed", "promotions")
        ]
        # Every counter of every shard moved.
        assert all(value > 0 for value in churn.values()), mode
        assert churn == reference(applied, shards)
        select = reference(
            [[entry for entry in entries if not is_band_change(entry)] for entries in applied],
            shards,
        )
        for index in range(shards):
            for what in ("items_added", "promotions"):
                name = f"shard/{index}/runtime/hotspot_{what}"
                assert churn[name] - select[name] > 0, (mode, name)
