"""Tests for micro-batching: a bounded, oldest-first drain that removes
nothing, and batched deltas equal to per-event ones."""

from repro.engine.events import DataEvent, EventKind
from repro.engine.table import RTuple
from repro.runtime.batching import MicroBatcher
from repro.runtime.replay import StreamProfile, generate_mixed_stream, run_replay


def insert_r(seq, rid):
    return (seq, DataEvent(EventKind.INSERT, "R", RTuple(rid, 1.0, 2.0)), 0)


class TestBatchLimits:
    def test_drain_respects_max_batch(self):
        batcher = MicroBatcher(max_batch=3)
        for seq in range(5):
            batcher.add(insert_r(seq, seq))
        assert [e[0] for e in batcher.drain()] == [0, 1, 2]
        assert len(batcher) == 2
        assert [e[0] for e in batcher.drain()] == [3, 4]


class TestBatchedDeltaEquivalence:
    def test_batched_equals_single_event_processing(self):
        """A churn stream replayed at batch=16 matches the unsharded
        single-event reference on every data event, the inserts and
        deletes of one row inside one batch included."""
        profile = StreamProfile(
            n_events=800,
            n_initial_queries=60,
            query_event_fraction=0.0,
            delete_fraction=0.35,
            churn=0.6,
            min_delete_age=32,
            recent_window=12,
            seed=5,
        )
        stream = generate_mixed_stream(profile)
        report = run_replay(stream, num_shards=3, batch_size=16)
        assert report.equivalent, report.summary()
        assert report.compared == report.applied == report.data_events == 800
