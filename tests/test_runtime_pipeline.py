"""Tests for the bounded event pipeline: backpressure, execution modes,
metrics, and query events in stream order (the one barrier left)."""

import sys

import pytest

from repro.core.intervals import Interval
from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.table import RTuple, STuple
from repro.obs.export import render_snapshot
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.pipeline import BackpressurePolicy, EventPipeline


def r_insert(rid, a=5.0, b=10.0):
    return DataEvent(EventKind.INSERT, "R", RTuple(rid, a, b))


def r_delete(rid, a=5.0, b=10.0):
    return DataEvent(EventKind.DELETE, "R", RTuple(rid, a, b))


def s_insert(sid, b=10.0, c=50.0):
    return DataEvent(EventKind.INSERT, "S", STuple(sid, b, c))


def wide_select():
    return SelectJoinQuery(Interval(0.0, 10_000.0), Interval(0.0, 10_000.0))


class TestBackpressure:
    def make(self, policy):
        # batch_size larger than capacity so auto-flush never makes room.
        return EventPipeline(
            num_shards=2,
            alpha=None,
            batch_size=64,
            queue_capacity=5,
            backpressure=policy,
            mode="inline",
        )

    def test_reject_returns_false_and_counts(self):
        with self.make("reject") as pipeline:
            accepted = [pipeline.submit(r_insert(i)) for i in range(8)]
            assert accepted == [True] * 5 + [False] * 3
            assert pipeline.rejected_seqs == [5, 6, 7]
            snap = pipeline.metrics.snapshot()
            assert snap["counters"]["pipeline/events_rejected"] == 3
            assert snap["counters"]["pipeline/events_submitted"] == 8
            applied = pipeline.drain()
            assert [seq for seq, __, __ in applied] == [0, 1, 2, 3, 4]

    def test_drop_oldest_evicts_and_counts(self):
        with self.make("drop-oldest") as pipeline:
            for i in range(8):
                assert pipeline.submit(r_insert(i))
            assert pipeline.dropped_seqs == [0, 1, 2]
            assert pipeline.metrics.snapshot()["counters"]["pipeline/events_dropped"] == 3
            applied = pipeline.drain()
            assert [seq for seq, __, __ in applied] == [3, 4, 5, 6, 7]

    def test_block_flushes_to_make_room(self):
        with self.make(BackpressurePolicy.BLOCK) as pipeline:
            for i in range(8):
                assert pipeline.submit(r_insert(i))
            pipeline.drain()
            snap = pipeline.metrics.snapshot()
            assert snap["counters"]["pipeline/backpressure_blocks"] == 1
            # Resolved at construction: never dropping reads as zero.
            assert snap["counters"].get("pipeline/events_dropped", 0) == 0
            assert snap["counters"]["pipeline/events_applied"] == 8  # nothing lost

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            EventPipeline(backpressure="nonsense")

    def test_drop_oldest_suppresses_delete_of_evicted_insert(self):
        # Seqs 0-2 are evicted before ever reaching a shard; their deletes
        # must be refused too, not applied against never-installed state.
        with self.make("drop-oldest") as pipeline:
            for i in range(8):
                assert pipeline.submit(r_insert(i))
            assert pipeline.dropped_seqs == [0, 1, 2]
            for i in range(3):
                assert pipeline.submit(
                    DataEvent(EventKind.DELETE, "R", RTuple(i, 5.0, 10.0))
                )
            assert pipeline.dropped_seqs == [0, 1, 2, 8, 9, 10]
            applied = pipeline.drain()
            assert [seq for seq, __, __ in applied] == [3, 4, 5, 6, 7]
            snap = pipeline.metrics.snapshot()
            assert snap["counters"]["pipeline/events_dropped"] == 6

    @pytest.mark.parametrize(
        "events, suppressed",
        [
            # Row 0 is installed (seq 0, flushed); capacity is 2.
            # The DELETE of row 1 is queued behind its INSERT when seq 3 evicts it.
            ([r_insert(1), r_delete(1), r_insert(2)], [1, 2]),
            # The DELETE of row 1 (seq 3) is the very submit that evicts its INSERT.
            ([r_insert(1), r_delete(0), r_delete(1)], [1, 3]),
            # The DELETE of row 1 arrives after the eviction (seq 3 evicted seq 1).
            ([r_insert(1), r_insert(2), r_insert(3), r_delete(1)], [1, 4]),
        ],
        ids=["delete-queued-before", "delete-evicts-its-insert", "delete-after"],
    )
    def test_drop_oldest_drops_the_delete_of_an_evicted_insert(self, events, suppressed):
        with EventPipeline(
            num_shards=2, alpha=None, batch_size=64, queue_capacity=2,
            backpressure="drop-oldest", mode="inline",
        ) as pipeline:
            pipeline.submit(r_insert(0))
            pipeline.flush()
            for event in events:
                assert pipeline.submit(event)
            pipeline.drain()  # an orphan DELETE would raise KeyError here
            assert pipeline.dropped_seqs == suppressed
            counters = pipeline.metrics.snapshot()["counters"]
            assert counters["pipeline/events_dropped"] == len(suppressed)
            rows = {0}
            for seq, event in enumerate(events, start=1):
                if seq not in suppressed:
                    (rows.add if event.kind is EventKind.INSERT else rows.remove)(event.row.rid)
            table_r = pipeline.shard_group.table_r
            assert sorted(row.rid for row in table_r) == sorted(rows)
            assert len(pipeline.shard_group.table_s) == 0

    def test_reject_suppresses_delete_of_rejected_insert(self):
        with self.make("reject") as pipeline:
            accepted = [pipeline.submit(r_insert(i)) for i in range(8)]
            assert accepted == [True] * 5 + [False] * 3
            pipeline.flush()  # make room so the deletes are not capacity-rejected
            # Deleting a row whose insert was rejected is itself rejected ...
            assert not pipeline.submit(
                DataEvent(EventKind.DELETE, "R", RTuple(6, 5.0, 10.0))
            )
            assert pipeline.rejected_seqs == [5, 6, 7, 8]
            # ... but a successful re-submit of the insert clears the mark,
            # after which its delete flows through normally.
            assert pipeline.submit(r_insert(7))
            pipeline.flush()  # keep the pair in separate batches (no coalescing)
            assert pipeline.submit(
                DataEvent(EventKind.DELETE, "R", RTuple(7, 5.0, 10.0))
            )
            pipeline.drain()
            snap = pipeline.metrics.snapshot()
            assert snap["counters"]["pipeline/events_applied"] == 7


class TestBatchTriggers:
    def test_batch_size_triggers_flush(self):
        with EventPipeline(
            num_shards=2, alpha=None, batch_size=4, mode="inline"
        ) as pipeline:
            for i in range(4):
                pipeline.submit(r_insert(i))
            assert pipeline.pending == 0  # size bound flushed the batch
            assert pipeline.metrics.snapshot()["counters"]["pipeline/batches"] == 1

    def test_max_delay_zero_flushes_every_event(self):
        with EventPipeline(
            num_shards=2, alpha=None, batch_size=64, max_delay=0.0, mode="inline"
        ) as pipeline:
            pipeline.submit(r_insert(0))
            assert pipeline.pending == 0


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

    def test_metrics_and_coalescing(self):
        with self.make(batch_size=64) as pipeline:
            pipeline.subscribe(wide_select())
            pipeline.submit(r_insert(0))
            pipeline.submit(DataEvent(EventKind.DELETE, "R", RTuple(0, 5.0, 10.0)))
            pipeline.submit(s_insert(0))
            results = pipeline.drain()
            # The insert+delete pair coalesced away before any worker saw it.
            assert pipeline.cancelled_pairs == [(0, 1)]
            assert [seq for seq, __, __ in results] == [2]
            snap = pipeline.metrics.snapshot()
            assert snap["counters"]["pipeline/events_applied"] == 1
            assert any(name.startswith("shard/") for name in snap["histograms"])

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
            assert pipeline.router.events_per_shard == [10, 10, 10]
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
