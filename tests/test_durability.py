"""Durability subsystem: WAL framing, checkpoints, crash recovery.

The acceptance property lives in ``TestKillAndRecover``: an interrupted
run whose WAL is truncated at an arbitrary byte offset (including
mid-record) recovers and then produces deltas byte-identical to an
uninterrupted reference run over the same deterministic stream.
"""

import os
import shutil
import stat
import struct
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.intervals import Interval
from repro.durability import (
    CodecError,
    DurabilityError,
    DurabilityManager,
    RecoveryError,
    Unsubscribe,
    WalCorruptionError,
    WriteAheadLog,
    decode_record,
    decode_stream,
    encode_event,
    load_latest_checkpoint,
    read_wal,
    recover_into,
    recover_system,
    write_checkpoint,
)
from repro.durability.wal import list_segments, segment_path
from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.table import RTuple, STuple
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.pipeline import EventPipeline
from repro.runtime.replay import (
    StreamProfile,
    generate_mixed_stream,
    normalize_deltas,
)


def r_insert(rid, a, b):
    return DataEvent(EventKind.INSERT, "R", RTuple(rid, a, b))


def s_insert(sid, b, c):
    return DataEvent(EventKind.INSERT, "S", STuple(sid, b, c))


# -- codec --------------------------------------------------------------------


# The TestCodec corpus with each record's bytes as the PR-20 encoder wrote
# them (CODEC_VERSION 1): the format is pinned, not merely self-consistent.
CODEC_CORPUS = [
    (
        r_insert(7, 1.5, -2.25),
        "010700000000000000000000000000f83f00000000000002c0",
    ),
    (
        DataEvent(EventKind.DELETE, "R", RTuple(7, 1.5, -2.25)),
        "020700000000000000000000000000f83f00000000000002c0",
    ),
    (
        s_insert(9, 3.0, 4.5),
        "03090000000000000000000000000008400000000000001240",
    ),
    (
        DataEvent(EventKind.DELETE, "S", STuple(9, 3.0, 4.5)),
        "04090000000000000000000000000008400000000000001240",
    ),
    (
        QueryEvent(EventKind.INSERT, BandJoinQuery(Interval(-1.0, 2.0), qid=11)),
        "050b00000000000000000000000000f0bf0000000000000040",
    ),
    (
        QueryEvent(
            EventKind.INSERT,
            SelectJoinQuery(Interval(0.0, 5.0), Interval(2.0, 9.0), qid=12),
        ),
        "060c0000000000000000000000000000000000000000001440"
        "00000000000000400000000000002240",
    ),
]
UNSUB_GOLDEN = "070300000000000000"


class TestCodec:
    @pytest.mark.parametrize("event", [event for event, __ in CODEC_CORPUS])
    def test_round_trip(self, event):
        decoded = decode_record(encode_event(event))
        if isinstance(event, DataEvent):
            assert decoded == event
        else:
            assert isinstance(decoded, QueryEvent)
            assert decoded.query.qid == event.query.qid
            assert type(decoded.query) is type(event.query)

    def test_unsubscribe_decodes_to_qid_marker(self):
        event = QueryEvent(EventKind.DELETE, BandJoinQuery(Interval(0, 1), qid=3))
        assert decode_record(encode_event(event)) == Unsubscribe(3)

    def test_golden_bytes(self):
        for event, golden in CODEC_CORPUS:
            assert encode_event(event).hex() == golden
        unsub = QueryEvent(EventKind.DELETE, BandJoinQuery(Interval(0, 1), qid=3))
        assert encode_event(unsub).hex() == UNSUB_GOLDEN
        assert decode_record(bytes.fromhex(UNSUB_GOLDEN)) == Unsubscribe(3)

    def test_select_query_ranges_survive(self):
        query = SelectJoinQuery(Interval(0.25, 5.5), Interval(2.125, 9.75), qid=4)
        decoded = decode_record(encode_event(QueryEvent(EventKind.INSERT, query)))
        assert decoded.query.range_a.lo == 0.25 and decoded.query.range_a.hi == 5.5
        assert decoded.query.range_c.lo == 2.125 and decoded.query.range_c.hi == 9.75

    def test_rejects_unknown_tag(self):
        with pytest.raises(CodecError):
            decode_record(bytes([200]) + b"\x00" * 24)

    def test_rejects_wrong_length(self):
        payload = encode_event(r_insert(1, 0.0, 0.0))
        with pytest.raises(CodecError):
            decode_record(payload[:-1])

    def test_rejects_empty_payload(self):
        with pytest.raises(CodecError):
            decode_record(b"")

    def test_rejects_unsupported_event(self):
        with pytest.raises(CodecError):
            encode_event(object())

    @pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (float("nan"), 1.0)])
    def test_rejects_invalid_interval(self, lo, hi):
        """A record the engine's value types refuse is a ``CodecError``
        like any other malformed record, not their ``ValueError``."""
        payload = struct.pack("<Bqdd", 5, 1, lo, hi)
        with pytest.raises(CodecError):
            decode_record(payload)
        with pytest.raises(CodecError):
            decode_stream(encode_event(r_insert(1, 1.0, 2.0)) + payload)

    def test_stream_round_trip(self):
        events = [r_insert(1, 1.0, 2.0), s_insert(2, 3.0, 4.0)]
        blob = b"".join(encode_event(e) for e in events)
        assert decode_stream(blob) == events

    def test_stream_rejects_trailing_bytes(self):
        blob = encode_event(r_insert(1, 1.0, 2.0)) + b"\x01"
        with pytest.raises(CodecError):
            decode_stream(blob)


# -- WAL ----------------------------------------------------------------------


def append_events(wal, events):
    for event in events:
        wal.append(encode_event(event))


class TestWal:
    def test_append_read_round_trip(self, tmp_path):
        events = [r_insert(i, float(i), float(2 * i)) for i in range(10)]
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            append_events(wal, events)
        result = read_wal(tmp_path)
        assert not result.torn_tail
        assert [rec.seq for rec in result.records] == list(range(10))
        assert [decode_record(rec.payload) for rec in result.records] == events
        assert result.next_seq == 10

    def test_rotation_splits_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never", segment_bytes=128) as wal:
            append_events(wal, [r_insert(i, 0.0, 0.0) for i in range(20)])
        segments = list_segments(tmp_path)
        assert len(segments) > 1
        result = read_wal(tmp_path)
        assert [rec.seq for rec in result.records] == list(range(20))

    def test_reopen_resumes_at_start_seq(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            append_events(wal, [r_insert(i, 0.0, 0.0) for i in range(5)])
        with WriteAheadLog(tmp_path, fsync="never", start_seq=5) as wal:
            assert wal.append(encode_event(r_insert(5, 0.0, 0.0))) == 5
        assert [rec.seq for rec in read_wal(tmp_path).records] == list(range(6))

    def test_torn_final_record_is_tolerated(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            append_events(wal, [r_insert(i, 0.0, 0.0) for i in range(4)])
        segment = list_segments(tmp_path)[-1]
        with open(segment, "r+b") as handle:
            handle.truncate(segment.stat().st_size - 7)  # mid-record cut
        result = read_wal(tmp_path)
        assert result.torn_tail
        assert [rec.seq for rec in result.records] == [0, 1, 2]
        assert result.next_seq == 3

    def test_truncated_header_of_last_segment_is_tolerated(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            append_events(wal, [r_insert(0, 0.0, 0.0)])
        with WriteAheadLog(tmp_path, fsync="never", start_seq=1) as wal:
            append_events(wal, [r_insert(1, 0.0, 0.0)])
        last = list_segments(tmp_path)[-1]
        with open(last, "r+b") as handle:
            handle.truncate(3)  # crash during the header write
        result = read_wal(tmp_path)
        assert result.torn_tail
        assert [rec.seq for rec in result.records] == [0]

    def test_crc_mismatch_mid_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            append_events(wal, [r_insert(i, 0.0, 0.0) for i in range(4)])
        segment = list_segments(tmp_path)[-1]
        data = bytearray(segment.read_bytes())
        # Flip a payload byte of an interior (complete) record: damage that
        # truncation cannot produce must never be skipped silently.
        data[16 + 16 + 4] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="CRC mismatch"):
            read_wal(tmp_path)

    def test_short_non_final_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            append_events(wal, [r_insert(0, 0.0, 0.0)])
        with WriteAheadLog(tmp_path, fsync="never", start_seq=1) as wal:
            append_events(wal, [r_insert(1, 0.0, 0.0)])
        first = list_segments(tmp_path)[0]
        with open(first, "r+b") as handle:
            handle.truncate(first.stat().st_size - 3)
        with pytest.raises(WalCorruptionError, match="non-final"):
            read_wal(tmp_path)

    def test_bad_magic_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            append_events(wal, [r_insert(0, 0.0, 0.0)])
        segment = list_segments(tmp_path)[0]
        data = bytearray(segment.read_bytes())
        data[:4] = b"NOPE"
        segment.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="bad magic"):
            read_wal(tmp_path)

    def test_empty_segment_is_tolerated(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            append_events(wal, [r_insert(0, 0.0, 0.0)])
        segment_path(tmp_path, 1).touch()  # crash between create and write
        result = read_wal(tmp_path)
        assert [rec.seq for rec in result.records] == [0]
        assert not result.torn_tail

    def test_empty_directory_reads_empty(self, tmp_path):
        result = read_wal(tmp_path)
        assert result.records == [] and result.next_seq == 0

    def test_prune_removes_covered_segments_only(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never", segment_bytes=128) as wal:
            append_events(wal, [r_insert(i, 0.0, 0.0) for i in range(20)])
            before = len(list_segments(tmp_path))
            removed = wal.prune(upto_seq=wal.next_seq)
            assert removed and len(list_segments(tmp_path)) < before
            # The active segment survives, and what remains still reads.
            assert wal.active_segment in list_segments(tmp_path)
        result = read_wal(tmp_path)
        assert result.records[-1].seq == 19

    def test_fsync_always_counts_per_append(self, tmp_path):
        metrics = MetricsRegistry()
        with WriteAheadLog(tmp_path, fsync="always", metrics=metrics) as wal:
            append_events(wal, [r_insert(i, 0.0, 0.0) for i in range(3)])
        assert metrics.counter("durability/wal_fsync_total").value >= 3

    def test_fsync_batch_counts_per_sync(self, tmp_path):
        metrics = MetricsRegistry()
        with WriteAheadLog(tmp_path, fsync="batch", metrics=metrics) as wal:
            append_events(wal, [r_insert(i, 0.0, 0.0) for i in range(8)])
            wal.sync()
            count = metrics.counter("durability/wal_fsync_total").value
            assert count == 1
            wal.sync()  # not dirty: no extra fsync
            assert metrics.counter("durability/wal_fsync_total").value == count

    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_per_append_and_per_batch_writes_are_byte_identical(self, tmp_path):
        """The tail changes when bytes reach the OS, never which bytes: a
        record written and fsynced at every append and the same stream
        logged by a batching pipeline, written once per sync, leave the
        same segments."""
        stream = generate_mixed_stream(
            StreamProfile(n_events=300, n_initial_queries=20, seed=4)
        )
        with WriteAheadLog(tmp_path / "always", fsync="always", segment_bytes=2048) as wal:
            append_events(wal, stream)
        manager = DurabilityManager(tmp_path / "batch", fsync="batch", segment_bytes=2048)
        pipeline = EventPipeline(num_shards=2, batch_size=64, durability=manager)
        manager.attach(pipeline)
        pipeline.run(stream)
        pipeline.close()
        always, batch = list_segments(tmp_path / "always"), list_segments(tmp_path / "batch")
        assert len(always) > 1
        assert [path.name for path in always] == [path.name for path in batch]
        for mine, theirs in zip(always, batch):
            assert mine.read_bytes() == theirs.read_bytes()

    def test_rotation_inside_a_batch_keeps_each_record_in_its_segment(self, tmp_path):
        segment_bytes = 200
        with WriteAheadLog(tmp_path / "wal", fsync="batch", segment_bytes=segment_bytes) as wal:
            for i in range(40):  # one batch: no sync until all are appended
                wal.append(encode_event(r_insert(i, 0.0, 0.0)))
                assert wal.buffered_bytes < segment_bytes  # rotation drains the tail
            wal.sync()
        segments = list_segments(tmp_path / "wal")
        assert len(segments) > 2
        firsts = [int(path.name[4:-4]) for path in segments]
        seqs = []
        for k, path in enumerate(segments):
            alone = tmp_path / f"alone-{k}"
            alone.mkdir()
            shutil.copy(path, alone)
            records = read_wal(alone).records
            bound = firsts[k + 1] if k + 1 < len(firsts) else 40
            assert all(firsts[k] <= rec.seq < bound for rec in records)
            seqs.extend(rec.seq for rec in records)
        assert seqs == list(range(40))

    def test_flush_between_appends_leaves_a_readable_prefix(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            append_events(wal, [r_insert(i, 0.0, 0.0) for i in range(3)])
            assert read_wal(tmp_path).records == []  # still in the tail
            wal.flush()
            append_events(wal, [r_insert(i, 0.0, 0.0) for i in range(3, 5)])
            result = read_wal(tmp_path)
            assert [rec.seq for rec in result.records] == [0, 1, 2]
            assert not result.torn_tail
            wal.flush()
            assert [rec.seq for rec in read_wal(tmp_path).records] == list(range(5))

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        append_events(wal, [r_insert(0, 0.0, 0.0)])
        wal.close()
        with pytest.raises(DurabilityError, match="closed"):
            wal.append(encode_event(r_insert(1, 0.0, 0.0)))
        assert [rec.seq for rec in read_wal(tmp_path).records] == [0]


# -- checkpoints --------------------------------------------------------------


def snapshot_payload():
    return b"".join(
        encode_event(event)
        for event in (
            r_insert(1, 1.0, 2.0),
            s_insert(2, 3.0, 4.0),
            QueryEvent(EventKind.INSERT, BandJoinQuery(Interval(0, 1), qid=5)),
        )
    )


def write_two_checkpoints(directory):
    """Checkpoints at seqs 10 and 20; returns the newer file."""
    write_checkpoint(directory, next_seq=10, payload=snapshot_payload(), config={})
    return write_checkpoint(
        directory, next_seq=20, payload=snapshot_payload(), config={}
    )


class TestCheckpoint:
    def test_write_load_round_trip(self, tmp_path):
        path = write_checkpoint(
            tmp_path,
            next_seq=42,
            payload=snapshot_payload(),
            config={"num_shards": 2},
        )
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.name == f"checkpoint-{42:020d}.snap"
        loaded, skipped = load_latest_checkpoint(tmp_path)
        assert skipped == []
        assert loaded.next_seq == 42
        assert loaded.config["num_shards"] == 2
        assert len(loaded.rows) == 2  # rows split out from subscriptions
        assert len(loaded.subscriptions) == 1

    def test_newest_valid_checkpoint_wins(self, tmp_path):
        write_two_checkpoints(tmp_path)
        loaded, __ = load_latest_checkpoint(tmp_path)
        assert loaded.next_seq == 20

    def test_missing_snapshot_file_falls_back(self, tmp_path):
        """A checkpoint file cut short (records or header) is skipped."""
        newest = write_two_checkpoints(tmp_path)
        data = newest.read_bytes()
        for size in (len(data) - 5, 6):
            newest.write_bytes(data[:size])
            loaded, skipped = load_latest_checkpoint(tmp_path)
            assert loaded.next_seq == 10
            assert len(skipped) == 1 and skipped[0].startswith(newest.name)

    def test_crc_damage_falls_back(self, tmp_path):
        newest = write_two_checkpoints(tmp_path)
        data = bytearray(newest.read_bytes())
        data[-5] ^= 0xFF
        newest.write_bytes(bytes(data))
        loaded, skipped = load_latest_checkpoint(tmp_path)
        assert loaded.next_seq == 10
        assert any("CRC mismatch" in note for note in skipped)

    def test_no_checkpoint_returns_none(self, tmp_path):
        loaded, skipped = load_latest_checkpoint(tmp_path)
        assert loaded is None and skipped == []

    def test_directory_fsync_precedes_every_unlink(self, tmp_path, monkeypatch):
        """The rename that publishes a checkpoint is durable before the
        checkpoint and WAL segments it supersedes are unlinked."""
        manager = DurabilityManager(tmp_path, fsync="never", segment_bytes=256)
        pipeline = EventPipeline(num_shards=2, batch_size=8, durability=manager)
        manager.attach(pipeline)
        pipeline.run(OPS)
        manager.checkpoint(pipeline)
        pipeline.run([r_insert(i, float(i), 1.0) for i in range(10, 30)])
        calls = []
        real_fsync, real_unlink = os.fsync, os.unlink

        def fsync(fd):
            calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            real_fsync(fd)

        def unlink(path, *args, **kwargs):
            calls.append(f"unlink {Path(path).name}")
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "unlink", unlink)
        manager.checkpoint(pipeline)
        monkeypatch.undo()
        pipeline.close()
        assert calls[:2] == ["fsync file", "fsync dir"]
        unlinked = calls[2:]
        assert all(call.startswith("unlink ") for call in unlinked)
        assert any(call.startswith("unlink checkpoint-") for call in unlinked)
        assert any(call.startswith("unlink wal-") for call in unlinked)


# -- recovery -----------------------------------------------------------------


BAND = BandJoinQuery(Interval(-2.0, 2.0), qid=100)
SELECT = SelectJoinQuery(Interval(0.0, 50.0), Interval(0.0, 50.0), qid=101)

# A small scripted history and the final counts it must leave behind.
OPS = [
    QueryEvent(EventKind.INSERT, BAND),
    QueryEvent(EventKind.INSERT, SELECT),
    r_insert(1, 10.0, 5.0),
    s_insert(1, 6.0, 20.0),
    s_insert(2, 30.0, 40.0),
    DataEvent(EventKind.DELETE, "S", STuple(2, 30.0, 40.0)),
    QueryEvent(EventKind.DELETE, BAND),
]
WANT = {"r": 1, "s": 1, "subs": 1}

GOLDEN_WAL = (
    "5257414c0100010000000000000000001900000030385d5b0000000000000000"
    "05640000000000000000000000000000c0000000000000004029000000192d84"
    "a001000000000000000665000000000000000000000000000000000000000000"
    "494000000000000000000000000000004940190000002ad861f3020000000000"
    "0000010100000000000000000000000000244000000000000014401900000090"
    "28beb20300000000000000030100000000000000000000000000184000000000"
    "0000344019000000007901070400000000000000030200000000000000000000"
    "0000003e400000000000004440190000005b15a3ff0500000000000000040200"
    "0000000000000000000000003e400000000000004440090000003d851b5e0600"
    "000000000000076400000000000000"
)


def durable_per_event_pipeline(directory, **kwargs):
    """An attached durable pipeline applying each event as its own batch."""
    metrics = kwargs.pop("metrics", None)
    manager = DurabilityManager(directory, fsync="never", metrics=metrics)
    pipeline = EventPipeline(batch_size=1, durability=manager, **kwargs)
    report = manager.attach(pipeline)
    return manager, pipeline, report


def state_of(pipeline):
    shard0 = pipeline.shards[0]
    return {
        "r": len(shard0.table_r),
        "s": len(shard0.table_s_band),
        "subs": pipeline.subscription_count,
    }


def rejected_duplicate_subscribe(pipeline):
    with pytest.raises(ValueError, match="duplicate query id 101"):
        pipeline.submit(
            QueryEvent(EventKind.INSERT, BandJoinQuery(Interval(0, 1), qid=101))
        )


def rejected_unknown_unsubscribe(pipeline):
    with pytest.raises(KeyError):
        pipeline.submit(
            QueryEvent(EventKind.DELETE, BandJoinQuery(Interval(0, 1), qid=9))
        )


def rejected_unsupported_query(pipeline):
    with pytest.raises(TypeError, match="unsupported query type"):
        pipeline.submit(QueryEvent(EventKind.INSERT, SimpleNamespace(qid=5)))


class TestRecovery:
    def test_wal_only_recovery(self, tmp_path):
        manager, pipeline, __ = durable_per_event_pipeline(tmp_path, num_shards=2)
        pipeline.run(OPS)
        manager.close()

        recovered, report = recover_system(tmp_path)
        assert report.checkpoint_seq is None
        assert report.replayed_events == 7
        assert report.next_seq == 7
        assert state_of(recovered) == WANT

    @pytest.mark.parametrize(
        "rejected",
        [
            rejected_duplicate_subscribe,
            rejected_unknown_unsubscribe,
            rejected_unsupported_query,
        ],
    )
    def test_rejected_subscription_change_leaves_no_record(self, tmp_path, rejected):
        """Validate-then-log: a change the pipeline refuses must not reach
        the WAL, where it would make every later recovery raise."""
        manager, pipeline, __ = durable_per_event_pipeline(tmp_path, num_shards=2)
        pipeline.run(OPS)
        rejected(pipeline)
        assert manager.next_seq == 7
        manager.close()

        recovered, report = recover_system(tmp_path)
        assert report.replayed_events == 7
        assert state_of(recovered) == WANT
        assert type(recovered.query_by_id(101)) is SelectJoinQuery

    def test_direct_subscribe_is_logged_once(self, tmp_path):
        """``subscribe``/``unsubscribe`` log themselves, so a change made
        without going through ``submit`` is recovered too."""
        manager, pipeline, __ = durable_per_event_pipeline(tmp_path, num_shards=2)
        pipeline.subscribe(BAND)
        pipeline.subscribe(SELECT)
        pipeline.unsubscribe(BAND)
        assert manager.next_seq == 3
        manager.close()

        recovered, __ = recover_system(tmp_path)
        assert recovered.subscription_count == 1
        assert type(recovered.query_by_id(101)) is SelectJoinQuery

    def test_checkpoint_plus_tail_with_seq_dedupe(self, tmp_path):
        manager, pipeline, __ = durable_per_event_pipeline(tmp_path, num_shards=2)
        pipeline.run(OPS)
        manager.checkpoint(pipeline)  # covers seqs [0, 7)
        pipeline.run([r_insert(2, 11.0, 6.0)])  # seq 7, in the WAL tail
        manager.close()

        # The active segment still holds seqs 0..7, so it overlaps the
        # checkpoint: records below next_seq must be deduped by sequence
        # number, not re-applied.
        recovered, report = recover_system(tmp_path)
        assert report.checkpoint_seq == 7
        assert report.deduped_records == 7
        assert report.replayed_events == 1
        assert report.next_seq == 8
        # The deduped insert did not double-apply row rid=1.
        assert len(recovered.shards[0].table_r) == 2
        assert recovered.subscription_count == 1

    def test_recovered_config_comes_from_manifest(self, tmp_path):
        manager, pipeline, __ = durable_per_event_pipeline(
            tmp_path, num_shards=3, alpha=0.05, epsilon=2.0
        )
        pipeline.run(OPS)
        manager.checkpoint(pipeline)
        manager.close()

        # The manifest's values win over the keyword fallbacks.
        recovered, __ = recover_system(tmp_path, alpha=0.3, epsilon=0.5)
        assert recovered.alpha == 0.05
        assert recovered.epsilon == 2.0
        # An inline recovery has one shard, and the manifest records no count.
        assert len(recovered.shards) == 1
        assert "num_shards" not in load_latest_checkpoint(tmp_path)[0].config

    def test_a_checkpoint_that_records_a_routing_domain_recovers(self, tmp_path, monkeypatch):
        """Older checkpoints record the routing domain (``domain_lo`` /
        ``domain_hi``) and the shard count (``num_shards``) in their
        config.  Routing picks no state, so recovery ignores those keys,
        builds its one inline shard and restores the same rows and
        subscriptions."""
        config_of = DurabilityManager._config_of
        monkeypatch.setattr(DurabilityManager, "_config_of", staticmethod(
            lambda source: {
                **config_of(source), "domain_lo": 0.0, "domain_hi": 1.0, "num_shards": 3,
            }
        ))
        manager, pipeline, __ = durable_per_event_pipeline(tmp_path, num_shards=2)
        pipeline.run(OPS)
        manager.checkpoint(pipeline)
        manager.close()
        loaded, __ = load_latest_checkpoint(tmp_path)
        assert (loaded.config["domain_lo"], loaded.config["domain_hi"]) == (0.0, 1.0)

        recovered, report = recover_system(tmp_path)
        assert (report.checkpoint_seq, report.replayed_events) == (7, 0)

        def contents(system):
            tables = system.table_set
            return (
                sorted(tables.table_r, key=lambda row: row.rid),
                sorted(tables.table_s, key=lambda row: row.sid),
                system.subscription_count,
                repr(system.query_by_id(101)),
            )

        assert contents(recovered) == contents(pipeline)
        assert recovered.router.value_ranges()[-1].hi == 10_000.0
        assert recovered.router.num_shards == 1

    def test_golden_segment_replays(self, tmp_path):
        """``GOLDEN_WAL`` is the segment the PR-20 writer produced for
        ``OPS``: today's writer produces the same bytes, and today's
        reader and recovery replay them to the same state."""
        with WriteAheadLog(tmp_path / "now", fsync="never") as wal:
            append_events(wal, OPS)
        (segment,) = list_segments(tmp_path / "now")
        assert segment.read_bytes().hex() == GOLDEN_WAL

        # The same stream through the whole stack -- submit, log-before-apply,
        # the manager's append -- leaves the same segment on disk.
        manager, pipeline, __ = durable_per_event_pipeline(tmp_path / "stack", num_shards=2)
        pipeline.run(OPS)
        pipeline.close()
        (segment,) = list_segments(tmp_path / "stack")
        assert segment.read_bytes().hex() == GOLDEN_WAL

        then = tmp_path / "then"
        then.mkdir()
        segment_path(then, 0).write_bytes(bytes.fromhex(GOLDEN_WAL))
        scan = read_wal(then)
        assert not scan.torn_tail
        assert [rec.seq for rec in scan.records] == list(range(7))
        records = [decode_record(rec.payload) for rec in scan.records]
        assert records[2:6] == OPS[2:6]
        assert [type(rec.query) for rec in records[:2]] == [
            BandJoinQuery,
            SelectJoinQuery,
        ]
        assert records[6] == Unsubscribe(100)
        recovered, report = recover_system(then)
        assert report.replayed_events == 7 and report.next_seq == 7
        assert state_of(recovered) == WANT
        select = recovered.query_by_id(101)
        assert (select.range_a, select.range_c) == (SELECT.range_a, SELECT.range_c)

    def test_unsub_of_unknown_query_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            wal.append(
                encode_event(
                    QueryEvent(
                        EventKind.DELETE, BandJoinQuery(Interval(0, 1), qid=77)
                    )
                )
            )
        with pytest.raises(RecoveryError, match="unknown query id 77"):
            recover_into(EventPipeline(num_shards=2), tmp_path)

    @pytest.mark.parametrize("damage", ["crc", "version-1-directory"])
    def test_sequence_gap_raises(self, tmp_path, damage):
        """With its one checkpoint unreadable (damaged, or a directory of
        the earlier format), the WAL pruned behind it would restore a
        state that skips every pruned event: recovery names the gap."""
        manager = DurabilityManager(
            tmp_path, fsync="never", checkpoint_every=100, segment_bytes=1024
        )
        pipeline = EventPipeline(num_shards=2, batch_size=16, durability=manager)
        manager.attach(pipeline)
        pipeline.run([r_insert(i, float(i), float(i % 7)) for i in range(250)])
        pipeline.close()
        (checkpoint,) = tmp_path.glob("checkpoint-*")
        if damage == "crc":
            data = bytearray(checkpoint.read_bytes())
            data[-1] ^= 0xFF
            checkpoint.write_bytes(bytes(data))
        else:
            checkpoint.unlink()
            (tmp_path / checkpoint.stem).mkdir()
            (tmp_path / checkpoint.stem / "manifest.json").write_text('{"version": 1}')
        first = read_wal(tmp_path).records[0].seq
        assert first > 0
        with pytest.raises(RecoveryError, match=f"expected seq 0, found {first}"):
            recover_system(tmp_path)

    def test_attach_recovers_then_resumes_logging(self, tmp_path):
        manager, pipeline, __ = durable_per_event_pipeline(tmp_path, num_shards=2)
        pipeline.run(OPS)
        manager.close()

        metrics = MetricsRegistry()
        manager2, pipeline2, report = durable_per_event_pipeline(
            tmp_path, num_shards=2, metrics=metrics
        )
        assert report.next_seq == 7
        assert metrics.counter("durability/recovered_events_total").value == 7
        # Replay was not re-logged; fresh activity continues the sequence.
        assert manager2.next_seq == 7
        pipeline2.run([r_insert(9, 1.0, 2.0)])
        assert manager2.next_seq == 8
        manager2.close()


# -- kill-and-recover acceptance ----------------------------------------------


PROFILE = StreamProfile(
    n_events=10_000,
    n_initial_queries=120,
    band_fraction=0.3,
    delete_fraction=0.25,
    churn=0.0,
    seed=20_060_912,
)


def normalized_outputs(results):
    return [
        (event.kind.name, event.relation, event.row, normalize_deltas(deltas))
        for __, event, deltas in results
    ]


def durable_pipeline(directory, metrics=None, mode="inline"):
    manager = DurabilityManager(
        directory, fsync="never", checkpoint_every=2_500, metrics=metrics
    )
    pipeline = EventPipeline(
        num_shards=2,
        alpha=0.05,
        batch_size=64,
        mode=mode,
        metrics=metrics,
        durability=manager,
    )
    return manager, pipeline


MODES = ("inline", "process-shm")


class TestKillAndRecover:
    @pytest.mark.parametrize(
        "mode, cut",
        [
            pytest.param(mode, cut, id=cut if mode == "inline" else f"{mode}-{cut}")
            for mode in MODES
            for cut in ("mid-record", "random")
        ],
    )
    def test_recovery_matches_uninterrupted_run(self, tmp_path, mode, cut):
        stream = generate_mixed_stream(PROFILE)
        crash_at = int(len(stream) * 0.63)

        reference = EventPipeline(
            num_shards=2, alpha=0.05, batch_size=64, mode="inline"
        )
        want = normalized_outputs(reference.run(stream))
        reference.close()

        wal_dir = tmp_path / "wal"
        manager, pipeline = durable_pipeline(wal_dir, mode=mode)
        manager.attach(pipeline)
        for event in stream[:crash_at]:
            pipeline.submit(event)
        pipeline.drain()
        manager.wal.flush()  # what a crashed process leaves at best

        # Simulate the kill: copy the directory as the crash froze it and
        # truncate the newest WAL segment at an arbitrary byte offset.
        crash_dir = tmp_path / "crash"
        shutil.copytree(wal_dir, crash_dir)
        pipeline.close()
        segment = list_segments(crash_dir)[-1]
        size = segment.stat().st_size
        if cut == "mid-record":
            offset = max(size - 13, 0)  # inside the final frame
        else:
            import random

            offset = random.Random(PROFILE.seed).randrange(size + 1)
        with open(segment, "r+b") as handle:
            handle.truncate(offset)

        manager2, pipeline2 = durable_pipeline(crash_dir, mode=mode)
        report = manager2.attach(pipeline2)
        assert report.next_seq <= crash_at
        # The attach recovered across the cut, and says so in the metrics.
        assert report.torn_tail or cut == "random"
        torn = manager2.metrics.counter("durability/wal_torn_tail_total")
        assert torn.value == int(report.torn_tail)
        got = normalized_outputs(pipeline2.run(stream[report.next_seq :]))
        pipeline2.close()

        # Byte-identity of everything after the recovery point: same rows,
        # same kinds, same normalized deltas, element by element.
        assert got == want[len(want) - len(got) :]

    def test_interrupted_run_loses_nothing_before_the_tail(self, tmp_path):
        """The WAL holds every submitted event up to the torn tail."""
        stream = generate_mixed_stream(PROFILE)
        crash_at = 4_000
        for mode in MODES:
            wal_dir = tmp_path / mode
            manager, pipeline = durable_pipeline(wal_dir, mode=mode)
            manager.attach(pipeline)
            for event in stream[:crash_at]:
                pipeline.submit(event)
            pipeline.drain()
            manager.sync()
            pipeline.close()
            result = read_wal(wal_dir)
            loaded, __ = load_latest_checkpoint(wal_dir)
            assert result.next_seq == crash_at
            assert loaded is not None and loaded.next_seq <= crash_at


# -- pipeline integration -----------------------------------------------------


class TestPipelineDurability:
    def test_process_shm_round_trip(self, tmp_path):
        """A process-shm host checkpoints the rows its parent holds and the
        queries it registered; an inline recovery reads them back."""
        manager, pipeline = durable_pipeline(tmp_path, mode="process-shm")
        manager.attach(pipeline)
        with pytest.raises(RuntimeError):
            pipeline.shards
        stream = generate_mixed_stream(
            StreamProfile(n_events=600, n_initial_queries=30, seed=2)
        )
        pipeline.run(stream)
        path = manager.checkpoint(pipeline)
        tables = pipeline.table_set
        want = (len(tables.table_r), len(tables.table_s), pipeline.subscription_count)
        pipeline.close()
        assert want[0] and want[1] and want[2]

        recovered, report = recover_system(tmp_path)
        assert report.checkpoint_seq == len(stream) and report.replayed_events == 0
        assert report.checkpoint_rows == want[0] + want[1]
        tables = recovered.shard_group
        assert (
            len(tables.table_r), len(tables.table_s), recovered.subscription_count
        ) == want
        assert load_latest_checkpoint(tmp_path)[0].path == path

    def test_metrics_are_registered(self, tmp_path):
        metrics = MetricsRegistry()
        manager, pipeline = durable_pipeline(tmp_path, metrics=metrics)
        manager.attach(pipeline)
        stream = generate_mixed_stream(
            StreamProfile(n_events=600, n_initial_queries=30, seed=2)
        )
        pipeline.run(stream)
        manager.checkpoint(pipeline)
        pipeline.close()
        snapshot = metrics.snapshot()
        assert snapshot["histograms"]["durability/wal_append_seconds"]["count"] > 0
        assert snapshot["histograms"]["durability/checkpoint_duration_seconds"]["count"] > 0
        assert metrics.counter("durability/checkpoints_total").value >= 1

    def test_fsync_batch_syncs_once_per_flush(self, tmp_path):
        metrics = MetricsRegistry()
        manager = DurabilityManager(tmp_path, fsync="batch", metrics=metrics)
        pipeline = EventPipeline(
            num_shards=2, batch_size=8, mode="inline", durability=manager
        )
        manager.attach(pipeline)
        for i in range(32):
            pipeline.submit(r_insert(i, float(i), float(i)))
        pipeline.drain()
        fsyncs = metrics.counter("durability/wal_fsync_total").value
        assert 1 <= fsyncs <= 32 // 8 + 1
        pipeline.close()

    def test_periodic_checkpoint_prunes_wal(self, tmp_path):
        manager = DurabilityManager(
            tmp_path, fsync="never", checkpoint_every=50, segment_bytes=512
        )
        pipeline = EventPipeline(
            num_shards=2, batch_size=16, mode="inline", durability=manager
        )
        manager.attach(pipeline)
        stream = generate_mixed_stream(
            StreamProfile(n_events=400, n_initial_queries=20, seed=5)
        )
        pipeline.run(stream)
        pipeline.close()
        loaded, __ = load_latest_checkpoint(tmp_path)
        assert loaded is not None and loaded.next_seq > 0
        # Retention: every surviving segment still matters for recovery.
        recovered, report = recover_system(tmp_path)
        assert report.next_seq == len(stream)
        assert recovered.subscription_count == pipeline.subscription_count
