"""Tests for the event pipeline: batch triggers, execution modes,
metrics, and query events in stream order (the one barrier left)."""

import gc
import sys

import pytest

from repro.core.intervals import Interval
from repro.engine.events import DataEvent, EventKind, QueryEvent, replay_data_events
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.system import ContinuousQuerySystem
from repro.engine.table import RTuple, STuple
from repro.obs.export import render_snapshot
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.pipeline import EventPipeline
from repro.runtime.replay import delta_row_ids


def r_insert(rid, a=5.0, b=10.0):
    return DataEvent(EventKind.INSERT, "R", RTuple(rid, a, b))


def s_insert(sid, b=10.0, c=50.0):
    return DataEvent(EventKind.INSERT, "S", STuple(sid, b, c))


def wide_select():
    return SelectJoinQuery(Interval(0.0, 10_000.0), Interval(0.0, 10_000.0))


class TestBatchTriggers:
    def test_batch_size_triggers_flush(self):
        with EventPipeline(
            num_shards=2, alpha=None, batch_size=4, mode="inline"
        ) as pipeline:
            for i in range(4):
                pipeline.submit(r_insert(i))
            assert pipeline.pending == 0  # size bound flushed the batch
            assert pipeline.metrics.snapshot()["counters"]["pipeline/batches"] == 1


class TestQueryEventBarrier:
    """Subscription changes ride the batch in stream order; the one
    barrier left is a reused qid (``TestQueryEntries`` in
    ``test_fastpath.py`` covers the rest)."""

    def test_subscribe_rides_the_batch_in_stream_order(self):
        """A mid-stream subscription observes exactly the stream prefix
        before it: the insert queued ahead of it produces no delta for it,
        but its row is installed and joins later arrivals."""
        with EventPipeline(
            num_shards=2, alpha=None, batch_size=64, mode="inline"
        ) as pipeline:
            pipeline.run([r_insert(9)])  # an R row the S insert would join
            pipeline.submit(s_insert(0))
            assert pipeline.pending == 1
            query = wide_select()
            pipeline.submit(QueryEvent(EventKind.INSERT, query))
            assert pipeline.pending == 2  # queued behind the S insert, not a barrier
            results = pipeline.run([r_insert(0)])
            (__, __, s_deltas), (__, __, r_deltas) = results
            assert s_deltas == {}  # arrived before the subscription
            assert len(r_deltas[query]) == 1  # joins the pre-subscribe S row

    def test_unsubscribe_stops_deltas(self):
        with EventPipeline(
            num_shards=2, alpha=None, batch_size=64, mode="inline"
        ) as pipeline:
            query = wide_select()
            pipeline.submit(QueryEvent(EventKind.INSERT, query))
            pipeline.submit(s_insert(0))
            pipeline.submit(QueryEvent(EventKind.DELETE, query))
            results = pipeline.run([r_insert(0)])
            assert results[0][2] == {}

    def test_callbacks_fire_on_flush(self):
        seen = []
        with EventPipeline(
            num_shards=2, alpha=None, batch_size=64, mode="inline"
        ) as pipeline:
            pipeline.subscribe(
                wide_select(),
                on_results=lambda q, row, matches: seen.append((row.rid, len(matches))),
            )
            pipeline.submit(s_insert(0))
            pipeline.submit(r_insert(7))
            pipeline.drain()
        assert seen == [(7, 1)]


class TestExecutionModes:
    @pytest.mark.parametrize("mode", ["gpu", "thread", "process"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match=r"inline\|process-shm"):
            EventPipeline(mode=mode)


@pytest.mark.skipif(
    sys.platform.startswith("win"), reason="fork-based worker pools"
)
class TestProcessBackend:
    """The process-shm mode moves events/queries across the worker boundary
    as frames and resolves returned deltas back by qid — every path here is
    distinct from the inline backend and deserves its own coverage."""

    def make(self, **kwargs):
        kwargs.setdefault("num_shards", 2)
        kwargs.setdefault("alpha", None)
        kwargs.setdefault("batch_size", 8)
        return EventPipeline(mode="process-shm", **kwargs)

    def test_deltas_resolve_to_caller_query_objects(self):
        with self.make() as pipeline:
            query = wide_select()
            pipeline.subscribe(query)
            results = pipeline.run([s_insert(0), r_insert(0)])
            (__, __, s_deltas), (__, __, r_deltas) = results
            assert s_deltas == {}
            (got_query, matches), = r_deltas.items()
            # The worker decoded its own copy; the caller gets the original.
            assert got_query is query
            assert [row.sid for row in matches] == [0]

    def test_mid_stream_subscribe_unsubscribe_in_stream_order(self):
        """QueryEvents ride the batch in process-shm mode too: the
        subscription observes exactly the stream prefix before it, and
        unsubscribing by qid stops deltas without disturbing other
        subscriptions."""
        with self.make() as pipeline:
            first = wide_select()
            second = wide_select()
            pipeline.submit(s_insert(0))
            pipeline.submit(QueryEvent(EventKind.INSERT, first))
            assert pipeline.pending == 2  # queued behind the S insert, not a barrier
            pipeline.submit(QueryEvent(EventKind.INSERT, second))
            results = pipeline.run([r_insert(0)])
            (__, __, s_deltas), (__, __, deltas) = results
            assert s_deltas == {}
            assert {q.qid for q in deltas} == {first.qid, second.qid}
            pipeline.submit(QueryEvent(EventKind.DELETE, first))
            results = pipeline.run([r_insert(1)])
            (__, __, deltas), = results
            assert {q.qid for q in deltas} == {second.qid}
            assert pipeline.subscription_count == 1

    def test_callbacks_fire_on_flush(self):
        seen = []
        with self.make() as pipeline:
            pipeline.subscribe(
                wide_select(),
                on_results=lambda q, row, matches: seen.append(
                    (q.qid, row.rid, len(matches))
                ),
            )
            pipeline.submit(s_insert(0))
            pipeline.submit(s_insert(1))
            pipeline.submit(r_insert(7))
            pipeline.drain()
        assert len(seen) == 1
        assert seen[0][1:] == (7, 2)

    def test_hotspot_path_in_workers(self):
        """alpha-enabled shards run the hotspot tracker inside the worker
        process; a pile of near-identical bands must still produce correct
        join results through promotion."""
        with self.make(alpha=0.2, num_shards=2, batch_size=4) as pipeline:
            # Midpoints >= 0: every band belongs to shard 1, the worker.
            queries = [
                BandJoinQuery(Interval(-1.0, 1.0 + 0.01 * i)) for i in range(12)
            ]
            for query in queries:
                pipeline.subscribe(query)
            assert pipeline.router.band_queries_per_shard == [0, len(queries)]
            pipeline.submit(r_insert(0, b=10.0))
            pipeline.drain()
            results = pipeline.run([s_insert(0, b=10.0)])
            (__, __, deltas), = results
            # |S.b - R.b| = 0 lies inside every band.
            assert len(deltas) == len(queries)
            assert all([row.rid for row in rows] == [0] for rows in deltas.values())
            pipeline.sample_hotspots()  # drains the worker's telemetry
            counters = pipeline.metrics.snapshot()["counters"]
            assert counters["shard/1/runtime/hotspot_promotions"] >= 1


class TestInBatchInsertDelete:
    """A row inserted and deleted inside one batch is applied like any
    other event: each event's delta is the per-event reference's."""

    @pytest.mark.parametrize("mode", [
        "inline",
        pytest.param("process-shm", marks=pytest.mark.skipif(
            sys.platform.startswith("win"), reason="fork-based workers")),
    ])
    def test_every_event_is_applied_and_answered(self, mode):
        query = wide_select()
        stream = [
            r_insert(0),
            s_insert(0),  # joins R row 0
            DataEvent(EventKind.DELETE, "R", RTuple(0, 5.0, 10.0)),
            s_insert(1),  # R row 0 is gone
        ]
        reference = ContinuousQuerySystem(alpha=None)
        reference.subscribe(query)
        want = []
        replay_data_events(stream, reference, on_result=lambda __, d: want.append(d))
        with EventPipeline(
            num_shards=2, alpha=None, batch_size=8, mode=mode
        ) as pipeline:
            pipeline.subscribe(query)
            results = pipeline.run(stream)
            snap = pipeline.metrics.snapshot()
        assert [seq for seq, __, __ in results] == [0, 1, 2, 3]
        assert snap["counters"]["pipeline/batches"] == 1
        got = [delta_row_ids(deltas) for __, __, deltas in results]
        assert got == [
            {qid: ids for qid, ids in delta_row_ids(deltas).items() if ids}
            for deltas in want
        ]
        assert got[1] == {query.qid: [0]}  # the S insert joins the live R row
        assert got[3] == {}  # the second S insert does not see the deleted row
        assert snap["counters"]["pipeline/events_applied"] == 4
        assert any(name.startswith("shard/") for name in snap["histograms"])


@pytest.fixture
def collector():
    """Yields a setter for the collector's state; re-enables it afterwards."""
    def set_state(enabled):
        (gc.enable if enabled else gc.disable)()
    try:
        yield set_state
    finally:
        gc.enable()


class TestCollectorPause:
    """A batch runs with the cyclic collector paused and leaves it in the
    state it found: on for a caller that had it on, off for one that
    turned it off, whether the batch returns or raises."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_a_flush_that_returns_leaves_the_state_it_found(self, collector, enabled):
        seen = []
        collector(enabled)
        with EventPipeline(alpha=None, batch_size=4) as pipeline:
            pipeline.subscribe(wide_select(), lambda *args: seen.append(gc.isenabled()))
            results = pipeline.run([s_insert(0), r_insert(0), r_insert(1)])
            assert gc.isenabled() is enabled
        assert seen == [False, False]  # result callbacks run paused
        assert [bool(deltas) for __, __, deltas in results] == [False, True, True]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_a_flush_that_raises_leaves_the_state_it_found(self, collector, enabled):
        collector(enabled)
        with EventPipeline(alpha=None, batch_size=1) as pipeline:
            query = pipeline.subscribe(wide_select())
            pipeline.submit(s_insert(0))
            with pytest.raises(KeyError, match="99"):  # an R row never inserted
                pipeline.submit(DataEvent(EventKind.DELETE, "R", RTuple(99, 5.0, 10.0)))
            assert gc.isenabled() is enabled
            later = pipeline.run([r_insert(rid) for rid in range(3)])
        assert [delta_row_ids(deltas) for __, __, deltas in later] == [{query.qid: [0]}] * 3
        assert gc.isenabled() is enabled

    def test_a_batch_of_thousands_of_hit_lists_runs_no_collector_pass(self, collector):
        collector(True)
        queries = [BandJoinQuery(Interval(-60.0 - k, 60.0 + k), qid=7000 + k) for k in range(80)]
        preload = [s_insert(sid, b=float(sid), c=50.0) for sid in range(100)]
        batch = [r_insert(rid, b=50.0 + rid % 7) for rid in range(63)]
        reference = ContinuousQuerySystem(alpha=0.2)
        for query in queries:
            reference.subscribe(query)
        replay_data_events(preload, reference)
        want = []
        replay_data_events(batch, reference, on_result=lambda __, deltas: want.append(deltas))
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        with EventPipeline(alpha=0.2, batch_size=64) as pipeline:
            for query in queries:
                pipeline.subscribe(query)
            pipeline.run(preload)
            for event in batch:
                pipeline.submit(event)
            assert pipeline.pending == len(batch)
            gc.callbacks.append(count)
            try:
                results = pipeline.flush()
            finally:
                gc.callbacks.remove(count)
        hit_lists = sum(len(deltas) for __, __, deltas in results)
        assert hit_lists == len(batch) * len(queries)
        assert passes == []
        def in_order(deltas):  # query order and hit-list order both compared
            return list(delta_row_ids(deltas).items())
        assert [in_order(deltas) for __, __, deltas in results] == list(map(in_order, want))


class TestMetrics:
    def test_snapshot_and_render(self):
        with EventPipeline(
            num_shards=2, alpha=None, batch_size=2, mode="inline"
        ) as pipeline:
            pipeline.subscribe(wide_select())
            pipeline.run([s_insert(0), r_insert(0), r_insert(1)])
            snap = pipeline.metrics.snapshot()
            assert snap["counters"]["pipeline/events_applied"] == 3
            assert snap["counters"]["pipeline/results_produced"] == 2
            assert snap["histograms"]["pipeline/batch_size"]["count"] == 2
            assert "shard/0/batch_us" in snap["histograms"]
            text = render_snapshot(snap)
            assert "pipeline/events_applied" in text

    def test_e2e_latencies_fold_into_one_pipeline_histogram(self):
        """Per batch the latencies fold once, into ``pipeline/e2e_us``:
        every event reaches every shard, so a per-shard copy would hold the
        same counts in the same buckets."""
        with EventPipeline(
            num_shards=3, alpha=None, batch_size=4, mode="inline"
        ) as pipeline:
            pipeline.subscribe(wide_select())
            pipeline.run([s_insert(i, c=3_000.0 * i) for i in range(4)]
                         + [r_insert(i) for i in range(6)])
            histograms = pipeline.metrics.snapshot()["histograms"]
            whole = histograms["pipeline/e2e_us"]
            assert whole["count"] == 10 and whole["min"] <= whole["max"]
            assert sum(n for __, n in whole["buckets"]) == 10
            assert pipeline.router.events_per_shard == [10]  # inline: one shard
            assert not [name for name in histograms if name.endswith("/e2e_us")
                        and name != "pipeline/e2e_us"]

    def test_hotspot_promotions_counted(self):
        metrics = MetricsRegistry()
        with EventPipeline(
            num_shards=1, alpha=0.2, batch_size=8, mode="inline", metrics=metrics
        ) as pipeline:
            # A pile of near-identical bands forms one dominant stabbing
            # group, which the shard's tracker promotes to a hotspot.
            for i in range(30):
                pipeline.subscribe(BandJoinQuery(Interval(-1.0 - 0.01 * i, 1.0)))
            assert metrics.snapshot()["counters"]["shard/0/runtime/hotspot_promotions"] >= 1
