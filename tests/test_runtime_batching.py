"""Tests for micro-batch coalescing."""

from repro.engine.events import DataEvent, EventKind
from repro.engine.table import RTuple, STuple
from repro.runtime.batching import MicroBatcher
from repro.runtime.replay import StreamProfile, generate_mixed_stream, run_replay


def insert_r(seq, rid):
    return (seq, DataEvent(EventKind.INSERT, "R", RTuple(rid, 1.0, 2.0)), 0)


def delete_r(seq, rid):
    return (seq, DataEvent(EventKind.DELETE, "R", RTuple(rid, 1.0, 2.0)), 0)


def insert_s(seq, sid):
    return (seq, DataEvent(EventKind.INSERT, "S", STuple(sid, 1.0, 2.0)), 0)


class TestCoalescing:
    def test_copending_insert_delete_pair_cancels(self):
        batcher = MicroBatcher(max_batch=16)
        batcher.add(insert_r(0, 7))
        batcher.add(insert_s(1, 3))
        batcher.add(delete_r(2, 7))
        batch = batcher.drain()
        assert [entry[0] for entry in batch] == [1]
        assert batcher.stats.coalesced_pairs == 1
        assert batcher.stats.cancelled == [(0, 2)]

    def test_survivor_order_is_preserved(self):
        batcher = MicroBatcher(max_batch=16)
        for seq in range(5):
            batcher.add(insert_r(seq, seq))
        batcher.add(delete_r(5, 2))
        batch = batcher.drain()
        assert [entry[0] for entry in batch] == [0, 1, 3, 4]

    def test_delete_without_pending_insert_survives(self):
        """A delete of a row inserted in an *earlier* batch must be applied."""
        batcher = MicroBatcher(max_batch=16)
        batcher.add(insert_r(0, 7))
        assert [e[0] for e in batcher.drain()] == [0]
        batcher.add(delete_r(1, 7))
        assert [e[0] for e in batcher.drain()] == [1]
        assert batcher.stats.coalesced_pairs == 0

    def test_same_id_different_relation_does_not_cancel(self):
        batcher = MicroBatcher(max_batch=16)
        batcher.add(insert_s(0, 7))
        batcher.add(delete_r(1, 7))  # rid 7 != sid 7
        assert [e[0] for e in batcher.drain()] == [0, 1]

    def test_coalesce_can_be_disabled(self):
        batcher = MicroBatcher(max_batch=16)
        batcher.add(insert_r(0, 7))
        batcher.add(delete_r(1, 7))
        assert [e[0] for e in batcher.drain(coalesce=False)] == [0, 1]

    def test_reinsert_after_cancelled_pair_survives(self):
        batcher = MicroBatcher(max_batch=16)
        batcher.add(insert_r(0, 7))
        batcher.add(delete_r(1, 7))
        batcher.add(insert_r(2, 7))  # same key re-inserted: must survive
        assert [e[0] for e in batcher.drain()] == [2]
        assert batcher.stats.coalesced_pairs == 1


class TestBatchLimits:
    def test_drain_respects_max_batch(self):
        batcher = MicroBatcher(max_batch=3)
        for seq in range(5):
            batcher.add(insert_r(seq, seq))
        assert batcher.is_due
        assert [e[0] for e in batcher.drain()] == [0, 1, 2]
        assert len(batcher) == 2
        assert [e[0] for e in batcher.drain()] == [3, 4]


class TestBatchedDeltaEquivalence:
    def test_batched_equals_single_event_processing(self):
        """Coalescing must not change any visible per-event delta: a churn
        stream replayed at batch=16 matches the unsharded single-event
        reference on every non-cancelled event."""
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
        assert report.coalesced_pairs > 0
        assert report.compared == report.data_events - 2 * report.coalesced_pairs
