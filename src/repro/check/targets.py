"""Fuzz targets: adapters mapping op sequences onto production structures.

Each target owns one system under test, declares the op ``kinds`` it
consumes, applies ops as they stream by, and exposes ``check(model)`` for
the runner's periodic invariant sweep.  Items are keyed by the op ``key``
(partitions and trackers identify items by object identity, so each target
materializes its *own* interval/row/query objects).

``TARGET_FACTORIES`` is the registry the runner builds targets from; tests
inject deliberately broken implementations by overriding an entry (e.g. a
``LazyStabbingPartition`` subclass with an off-by-one trigger) and checking
the fuzzer convicts it.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.check import ops as op_mod
from repro.check.ops import ENGINE_KINDS, INTERVAL_KINDS, Op
from repro.check.oracles import ModelState
from repro.check.probes import (
    check_batcher_drain,
    check_delta_equivalence,
    check_partition,
    check_tracker,
    expect,
)
from repro.core.hotspot_tracker import HotspotTracker
from repro.core.intervals import Interval
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.multidim import Box, DynamicBoxPartition
from repro.core.refined_partition import RefinedStabbingPartition
from repro.engine.events import DataEvent, EventKind
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.system import ContinuousQuerySystem
from repro.engine.table import RTuple, STuple
from repro.runtime.batching import BatchEntry, MicroBatcher
from repro.runtime.replay import normalize_deltas
from repro.runtime.sharding import ShardedContinuousQuerySystem


class FuzzTarget:
    """Interface every target implements."""

    name: str = "?"
    kinds: FrozenSet[str] = frozenset()

    def apply(self, op: Op, model: ModelState) -> None:
        raise NotImplementedError

    def check(self, model: ModelState) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release external resources (processes, shared memory, temp dirs).

        The runner calls this for every target when a run ends, pass or
        fail; the default is a no-op since most targets are pure in-process
        structures."""


# -- interval-domain targets -------------------------------------------------


class _IntervalPartitionTarget(FuzzTarget):
    """Shared plumbing for targets maintaining a partition of intervals.

    ``SET_EPSILON`` rebuilds the structure from the live items under the new
    parameter (partitions fix epsilon at construction); ``SET_ALPHA`` is
    ignored except by the tracker subclass.
    """

    kinds = INTERVAL_KINDS

    def __init__(self) -> None:
        self._items: Dict[int, Interval] = {}
        self._epsilon = 1.0
        self._structure = self._build([])

    def _build(self, items: List[Interval]) -> Any:
        raise NotImplementedError

    def apply(self, op: Op, model: ModelState) -> None:
        if op.kind == op_mod.INSERT_INTERVAL:
            item = Interval(op.values[0], op.values[1])
            self._items[op.key] = item
            self._structure.insert(item)
        elif op.kind == op_mod.DELETE_INTERVAL:
            self._structure.delete(self._items.pop(op.key))
        elif op.kind == op_mod.SET_EPSILON:
            self._epsilon = op.values[0]
            self._structure = self._build(list(self._items.values()))

    def check(self, model: ModelState) -> None:
        check_partition(
            self.name, self._structure, model, epsilon=self._epsilon
        )


class LazyTarget(_IntervalPartitionTarget):
    name = "lazy"

    def __init__(
        self,
        partition_cls: type[Any] = LazyStabbingPartition,
        trigger: str = "relaxed",
    ) -> None:
        self._partition_cls = partition_cls
        self._trigger = trigger
        super().__init__()

    def _build(self, items: List[Interval]) -> Any:
        return self._partition_cls(
            items, epsilon=self._epsilon, trigger=self._trigger
        )


class RefinedTarget(_IntervalPartitionTarget):
    name = "refined"

    def __init__(self, partition_cls: type[Any] = RefinedStabbingPartition) -> None:
        self._partition_cls = partition_cls
        super().__init__()

    def _build(self, items: List[Interval]) -> Any:
        # Fixed treap seed keeps runs reproducible per op sequence.
        return self._partition_cls(items, epsilon=self._epsilon, seed=0)


class MultidimTarget(FuzzTarget):
    """Drives :class:`DynamicBoxPartition` with 1-D boxes, where the sweep
    heuristic coincides with the canonical partition and the (1 + eps) * tau
    bound is exact."""

    name = "multidim"
    kinds = INTERVAL_KINDS

    def __init__(self, partition_cls: type[Any] = DynamicBoxPartition) -> None:
        self._partition_cls = partition_cls
        self._items: Dict[int, Box] = {}
        self._epsilon = 1.0
        self._structure = self._build([])

    def _build(self, items: List[Box]) -> Any:
        return self._partition_cls(items, epsilon=self._epsilon)

    def apply(self, op: Op, model: ModelState) -> None:
        if op.kind == op_mod.INSERT_INTERVAL:
            box = Box((op.values[0],), (op.values[1],))
            self._items[op.key] = box
            self._structure.insert(box)
        elif op.kind == op_mod.DELETE_INTERVAL:
            self._structure.delete(self._items.pop(op.key))
        elif op.kind == op_mod.SET_EPSILON:
            self._epsilon = op.values[0]
            self._structure = self._build(list(self._items.values()))

    def check(self, model: ModelState) -> None:
        check_partition(
            self.name,
            self._structure,
            model,
            epsilon=self._epsilon,
            interval_of=lambda box: Interval(box.lo[0], box.hi[0]),
        )


class TrackerTarget(FuzzTarget):
    name = "tracker"
    kinds = INTERVAL_KINDS

    def __init__(self, tracker_cls: type[Any] = HotspotTracker) -> None:
        self._tracker_cls = tracker_cls
        self._items: Dict[int, Interval] = {}
        self._alpha = 0.2
        self._epsilon = 1.0
        self._tracker = self._build([])

    def _build(self, items: List[Interval]) -> Any:
        return self._tracker_cls(items, alpha=self._alpha, epsilon=self._epsilon)

    def apply(self, op: Op, model: ModelState) -> None:
        if op.kind == op_mod.INSERT_INTERVAL:
            item = Interval(op.values[0], op.values[1])
            self._items[op.key] = item
            self._tracker.insert(item)
        elif op.kind == op_mod.DELETE_INTERVAL:
            self._tracker.delete(self._items.pop(op.key))
        elif op.kind == op_mod.SET_EPSILON:
            self._epsilon = op.values[0]
            self._tracker = self._build(list(self._items.values()))
        elif op.kind == op_mod.SET_ALPHA:
            self._alpha = op.values[0]
            self._tracker = self._build(list(self._items.values()))

    def check(self, model: ModelState) -> None:
        check_tracker(self.name, self._tracker, model)


# -- engine-domain targets ---------------------------------------------------


class BatcherTarget(FuzzTarget):
    """Feeds row events through a :class:`MicroBatcher`, draining whenever
    it is due and fully at every check round, verifying each drain against
    the naive pair-cancellation model."""

    name = "batcher"
    kinds = frozenset(
        {op_mod.INSERT_R, op_mod.DELETE_R, op_mod.INSERT_S, op_mod.DELETE_S}
    )

    def __init__(self, max_batch: int = 16) -> None:
        self.batcher = MicroBatcher(max_batch)
        self._seq = 0
        # Shadow of the pending queue: (seq, relation, row_id, kind).
        self._shadow: List[Tuple[Any, ...]] = []
        self._rows: Dict[Tuple[Any, ...], object] = {}

    def apply(self, op: Op, model: ModelState) -> None:
        if op.kind == op_mod.INSERT_R:
            row = RTuple(op.key, op.values[0], op.values[1])
            self._rows[("R", op.key)] = row
            self._enqueue(DataEvent(EventKind.INSERT, "R", row), op.key)
        elif op.kind == op_mod.DELETE_R:
            row = self._rows.pop(("R", op.key))
            self._enqueue(DataEvent(EventKind.DELETE, "R", row), op.key)
        elif op.kind == op_mod.INSERT_S:
            row = STuple(op.key, op.values[0], op.values[1])
            self._rows[("S", op.key)] = row
            self._enqueue(DataEvent(EventKind.INSERT, "S", row), op.key)
        elif op.kind == op_mod.DELETE_S:
            row = self._rows.pop(("S", op.key))
            self._enqueue(DataEvent(EventKind.DELETE, "S", row), op.key)

    def _enqueue(self, event: DataEvent, row_id: int) -> None:
        seq = self._seq
        self._seq += 1
        self.batcher.add(BatchEntry(seq, event))
        kind = "insert" if event.kind is EventKind.INSERT else "delete"
        self._shadow.append((seq, event.relation, row_id, kind))
        if self.batcher.is_due:
            self._drain_once()

    def _drain_once(self) -> None:
        before = list(self._shadow)
        pairs_seen = len(self.batcher.stats.cancelled)
        batch = self.batcher.drain()
        pairs = list(self.batcher.stats.cancelled[pairs_seen:])
        drained = [entry.seq for entry in batch]
        remaining = [entry.seq for entry in self.batcher._pending]
        check_batcher_drain(
            self.name, before, drained, remaining, pairs, self.batcher.max_batch
        )
        gone = set(drained)
        for insert_seq, delete_seq in pairs:
            gone.add(insert_seq)
            gone.add(delete_seq)
        self._shadow = [entry for entry in self._shadow if entry[0] not in gone]
        stats = self.batcher.stats
        expect(
            stats.events_in
            == stats.events_out + 2 * stats.coalesced_pairs + len(self.batcher),
            self.name,
            f"stats ledger drift: in={stats.events_in} out={stats.events_out} "
            f"pairs={stats.coalesced_pairs} pending={len(self.batcher)}",
        )

    def check(self, model: ModelState) -> None:
        while len(self.batcher):
            self._drain_once()


class EngineTarget(FuzzTarget):
    """Runs every engine op through the sharded system *and* the unsharded
    reference, comparing per-insert deltas between the two and against the
    model's nested-loop oracle."""

    name = "sharded"
    kinds = ENGINE_KINDS

    def __init__(
        self,
        num_shards: int = 3,
        alpha: Optional[float] = 0.2,
        epsilon: float = 1.0,
    ) -> None:
        self.sharded = ShardedContinuousQuerySystem(
            num_shards=num_shards, alpha=alpha, epsilon=epsilon
        )
        self.reference = ContinuousQuerySystem(alpha=alpha, epsilon=epsilon)
        self._r_rows: Dict[int, RTuple] = {}
        self._s_rows: Dict[int, STuple] = {}
        self._queries: Dict[int, object] = {}

    def apply(self, op: Op, model: ModelState) -> None:
        kind, key = op.kind, op.key
        if kind == op_mod.INSERT_R:
            row = RTuple(key, op.values[0], op.values[1])
            self._r_rows[key] = row
            got_sharded = normalize_deltas(self.sharded.insert_r_row(row))
            got_reference = normalize_deltas(self.reference.insert_r_row(row))
            want = model.oracle_r_insert_deltas(row.a, row.b)
            check_delta_equivalence(
                self.name, f"insert_r #{key}", got_sharded, got_reference, want
            )
        elif kind == op_mod.INSERT_S:
            row = STuple(key, op.values[0], op.values[1])
            self._s_rows[key] = row
            got_sharded = normalize_deltas(self.sharded.insert_s_row(row))
            got_reference = normalize_deltas(self.reference.insert_s_row(row))
            want = model.oracle_s_insert_deltas(row.b, row.c)
            check_delta_equivalence(
                self.name, f"insert_s #{key}", got_sharded, got_reference, want
            )
        elif kind == op_mod.DELETE_R:
            row = self._r_rows.pop(key)
            self.sharded.delete_r(row)
            self.reference.delete_r(row)
        elif kind == op_mod.DELETE_S:
            row = self._s_rows.pop(key)
            self.sharded.delete_s(row)
            self.reference.delete_s(row)
        elif kind == op_mod.SUB_BAND:
            query = BandJoinQuery(Interval(op.values[0], op.values[1]), qid=key)
            self._queries[key] = query
            self.sharded.subscribe(query)
            self.reference.subscribe(query)
        elif kind == op_mod.SUB_SELECT:
            query = SelectJoinQuery(
                Interval(op.values[0], op.values[1]),
                Interval(op.values[2], op.values[3]),
                qid=key,
            )
            self._queries[key] = query
            self.sharded.subscribe(query)
            self.reference.subscribe(query)
        elif kind == op_mod.UNSUB:
            query = self._queries.pop(key)
            self.sharded.unsubscribe(query)
            self.reference.unsubscribe(query)

    def check(self, model: ModelState) -> None:
        n_queries = model.subscription_count()
        expect(
            self.reference.subscription_count == n_queries,
            self.name,
            f"reference holds {self.reference.subscription_count} "
            f"subscription(s), model {n_queries}",
        )
        expect(
            self.sharded.subscription_count == n_queries,
            self.name,
            f"sharded system holds {self.sharded.subscription_count} "
            f"subscription(s), model {n_queries}",
        )
        n_r, n_s = len(model.r_rows), len(model.s_rows)
        expect(
            len(self.reference.table_r) == n_r and len(self.reference.table_s) == n_s,
            self.name,
            f"reference tables hold {len(self.reference.table_r)}R/"
            f"{len(self.reference.table_s)}S, model {n_r}R/{n_s}S",
        )
        for shard in self.sharded.shards:
            expect(
                len(shard.table_r) == n_r,
                self.name,
                f"shard {shard.index} R replica holds {len(shard.table_r)} "
                f"rows, model {n_r}",
            )
            expect(
                len(shard.table_s_band) == n_s,
                self.name,
                f"shard {shard.index} S band replica holds "
                f"{len(shard.table_s_band)} rows, model {n_s}",
            )
        select_total = sum(len(s.table_s_select) for s in self.sharded.shards)
        expect(
            select_total == n_s,
            self.name,
            f"S select partition holds {select_total} rows fleet-wide, "
            f"model {n_s} (slices must be disjoint and exhaustive)",
        )


class FastpathTarget(FuzzTarget):
    """Exercises the columnar batch fast path: data events are deferred into
    a pending buffer and flushed through
    :meth:`ShardedContinuousQuerySystem.apply_batch`, whose per-event deltas
    must match both the per-event reference system and the model's
    nested-loop oracle.

    Oracle deltas are captured *at op arrival* (the runner applies the op to
    the model first, so the oracle sees exactly the state the batched system
    will later replay against); query churn flushes the buffer so
    subscriptions take effect in stream order.
    """

    name = "fastpath"
    kinds = ENGINE_KINDS

    def __init__(
        self,
        num_shards: int = 2,
        alpha: Optional[float] = 0.2,
        epsilon: float = 1.0,
        max_batch: int = 24,
    ) -> None:
        self.batched = ShardedContinuousQuerySystem(
            num_shards=num_shards, alpha=alpha, epsilon=epsilon
        )
        self.reference = ContinuousQuerySystem(alpha=alpha, epsilon=epsilon)
        self.max_batch = max_batch
        self.flushes = 0
        # Pending (event, label, reference delta, oracle delta); delta
        # entries are None for deletes, which produce no results.
        self._pending: List[Tuple[Any, ...]] = []
        self._r_rows: Dict[int, RTuple] = {}
        self._s_rows: Dict[int, STuple] = {}
        self._queries: Dict[int, object] = {}

    def apply(self, op: Op, model: ModelState) -> None:
        kind, key = op.kind, op.key
        if kind == op_mod.INSERT_R:
            row = RTuple(key, op.values[0], op.values[1])
            self._r_rows[key] = row
            got_reference = normalize_deltas(self.reference.insert_r_row(row))
            want = model.oracle_r_insert_deltas(row.a, row.b)
            self._defer(
                DataEvent(EventKind.INSERT, "R", row),
                f"insert_r #{key}",
                got_reference,
                want,
            )
        elif kind == op_mod.INSERT_S:
            row = STuple(key, op.values[0], op.values[1])
            self._s_rows[key] = row
            got_reference = normalize_deltas(self.reference.insert_s_row(row))
            want = model.oracle_s_insert_deltas(row.b, row.c)
            self._defer(
                DataEvent(EventKind.INSERT, "S", row),
                f"insert_s #{key}",
                got_reference,
                want,
            )
        elif kind == op_mod.DELETE_R:
            row = self._r_rows.pop(key)
            self.reference.delete_r(row)
            self._defer(DataEvent(EventKind.DELETE, "R", row), f"delete_r #{key}", None, None)
        elif kind == op_mod.DELETE_S:
            row = self._s_rows.pop(key)
            self.reference.delete_s(row)
            self._defer(DataEvent(EventKind.DELETE, "S", row), f"delete_s #{key}", None, None)
        elif kind == op_mod.SUB_BAND:
            self.flush()
            query = BandJoinQuery(Interval(op.values[0], op.values[1]), qid=key)
            self._queries[key] = query
            self.batched.subscribe(query)
            self.reference.subscribe(query)
        elif kind == op_mod.SUB_SELECT:
            self.flush()
            query = SelectJoinQuery(
                Interval(op.values[0], op.values[1]),
                Interval(op.values[2], op.values[3]),
                qid=key,
            )
            self._queries[key] = query
            self.batched.subscribe(query)
            self.reference.subscribe(query)
        elif kind == op_mod.UNSUB:
            self.flush()
            query = self._queries.pop(key)
            self.batched.unsubscribe(query)
            self.reference.unsubscribe(query)

    def _defer(
        self,
        event: DataEvent,
        label: str,
        got_reference: Optional[Dict[int, Tuple[int, ...]]],
        want: Optional[Dict[int, Tuple[int, ...]]],
    ) -> None:
        self._pending.append((event, label, got_reference, want))
        if len(self._pending) >= self.max_batch:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self.flushes += 1
        deltas = self.batched.apply_batch([entry[0] for entry in pending])
        # The batch probe reads each join-key tree's flat mirror; holding it
        # to the leaf chain here fuzzes its in-place insert/remove upkeep.
        for shard in self.batched.shards:
            shard.table_r.by_b.check_invariants()
            shard.table_s_band.by_b.check_invariants()
        for (event, label, got_reference, want), delta in zip(pending, deltas):
            got_batched = normalize_deltas(delta)
            if want is None:
                expect(
                    not got_batched,
                    self.name,
                    f"{label}: delete produced results {got_batched}",
                )
                continue
            check_delta_equivalence(
                self.name, label, got_batched, got_reference, want
            )

    def check(self, model: ModelState) -> None:
        self.flush()
        n_r, n_s = len(model.r_rows), len(model.s_rows)
        expect(
            len(self.reference.table_r) == n_r and len(self.reference.table_s) == n_s,
            self.name,
            f"reference tables hold {len(self.reference.table_r)}R/"
            f"{len(self.reference.table_s)}S, model {n_r}R/{n_s}S",
        )
        for shard in self.batched.shards:
            expect(
                len(shard.table_r) == n_r and len(shard.table_s_band) == n_s,
                self.name,
                f"shard {shard.index} replicas hold {len(shard.table_r)}R/"
                f"{len(shard.table_s_band)}S after flush, model {n_r}R/{n_s}S",
            )


class DurabilityTarget(FuzzTarget):
    """Crash-injects the durability subsystem and checks exact recovery.

    Engine ops drive a WAL-logged :class:`ShardedContinuousQuerySystem`
    (``fsync="never"`` — the fuzzer simulates the crash by copying files, so
    real fsyncs would only slow it down) while a journal records every op
    with the normalized delta the live system produced.  Because each engine
    op logs exactly one WAL record, journal index == WAL sequence number.

    Every ``check`` round simulates a crash: flush OS buffers, copy the
    durability directory aside, truncate the newest WAL segment at a random
    byte offset (possibly mid-record, possibly mid-header), recover a fresh
    system from the copy, then re-apply the journal suffix the truncation
    lost.  The recovered run's deltas must be identical to what the
    uninterrupted system produced, and its final state must match the
    model's — any divergence means recovery lost, duplicated, or reordered
    an event.
    """

    name = "durability"
    kinds = ENGINE_KINDS

    def __init__(
        self,
        num_shards: int = 2,
        alpha: Optional[float] = 0.2,
        epsilon: float = 1.0,
        checkpoint_every: int = 64,
        crash_seed: int = 0xD0_0D,
    ) -> None:
        from repro.durability import DurabilityManager

        self._tmp = tempfile.TemporaryDirectory(prefix="repro-fuzz-durability-")
        self._wal_dir = Path(self._tmp.name) / "wal"
        self.manager = DurabilityManager(
            self._wal_dir, fsync="never", checkpoint_every=checkpoint_every
        )
        self.system = ShardedContinuousQuerySystem(
            num_shards=num_shards,
            alpha=alpha,
            epsilon=epsilon,
            durability=self.manager,
        )
        self.manager.attach(self.system)
        self._rng = random.Random(crash_seed)
        self._num_shards = num_shards
        self._alpha = alpha
        self._epsilon = epsilon
        # One entry per engine op: (kind, payload, normalized live delta).
        self._journal: List[Tuple[Any, ...]] = []
        self._r_rows: Dict[int, RTuple] = {}
        self._s_rows: Dict[int, STuple] = {}
        self._queries: Dict[int, object] = {}
        self.crashes_simulated = 0

    def apply(self, op: Op, model: ModelState) -> None:
        kind, key = op.kind, op.key
        if kind == op_mod.INSERT_R:
            row = RTuple(key, op.values[0], op.values[1])
            self._r_rows[key] = row
            got = normalize_deltas(self.system.insert_r_row(row))
            want = model.oracle_r_insert_deltas(row.a, row.b)
            check_delta_equivalence(self.name, f"insert_r #{key}", got, got, want)
            self._journal.append((kind, row, got))
        elif kind == op_mod.INSERT_S:
            row = STuple(key, op.values[0], op.values[1])
            self._s_rows[key] = row
            got = normalize_deltas(self.system.insert_s_row(row))
            want = model.oracle_s_insert_deltas(row.b, row.c)
            check_delta_equivalence(self.name, f"insert_s #{key}", got, got, want)
            self._journal.append((kind, row, got))
        elif kind == op_mod.DELETE_R:
            row = self._r_rows.pop(key)
            self.system.delete_r(row)
            self._journal.append((kind, row, None))
        elif kind == op_mod.DELETE_S:
            row = self._s_rows.pop(key)
            self.system.delete_s(row)
            self._journal.append((kind, row, None))
        elif kind == op_mod.SUB_BAND:
            query = BandJoinQuery(Interval(op.values[0], op.values[1]), qid=key)
            self._queries[key] = query
            self.system.subscribe(query)
            self._journal.append((kind, query, None))
        elif kind == op_mod.SUB_SELECT:
            query = SelectJoinQuery(
                Interval(op.values[0], op.values[1]),
                Interval(op.values[2], op.values[3]),
                qid=key,
            )
            self._queries[key] = query
            self.system.subscribe(query)
            self._journal.append((kind, query, None))
        elif kind == op_mod.UNSUB:
            query = self._queries.pop(key)
            self.system.unsubscribe(query)
            self._journal.append((kind, query, None))

    # -- crash simulation ----------------------------------------------------

    def _replay_entry(
        self, system: Any, entry: Tuple[Any, ...], index: int
    ) -> None:
        kind, payload, recorded = entry
        if kind == op_mod.INSERT_R:
            got = normalize_deltas(system.insert_r_row(payload))
            expect(
                got == recorded,
                self.name,
                f"recovered replay of journal[{index}] (insert_r "
                f"#{payload.rid}) produced {got}, uninterrupted run "
                f"produced {recorded}",
            )
        elif kind == op_mod.INSERT_S:
            got = normalize_deltas(system.insert_s_row(payload))
            expect(
                got == recorded,
                self.name,
                f"recovered replay of journal[{index}] (insert_s "
                f"#{payload.sid}) produced {got}, uninterrupted run "
                f"produced {recorded}",
            )
        elif kind == op_mod.DELETE_R:
            system.delete_r(payload)
        elif kind == op_mod.DELETE_S:
            system.delete_s(payload)
        elif kind in (op_mod.SUB_BAND, op_mod.SUB_SELECT):
            system.subscribe(payload)
        elif kind == op_mod.UNSUB:
            system.unsubscribe(payload)

    def check(self, model: ModelState) -> None:
        from repro.durability import recover_system
        from repro.durability.wal import list_segments

        expect(
            self.manager.next_seq == len(self._journal),
            self.name,
            f"WAL advanced to seq {self.manager.next_seq} after "
            f"{len(self._journal)} engine op(s); every op must log exactly "
            "one record",
        )
        self.manager.wal.flush()
        crash_dir = Path(self._tmp.name) / "crash"
        if crash_dir.exists():
            shutil.rmtree(crash_dir)
        shutil.copytree(self._wal_dir, crash_dir)
        segments = list_segments(crash_dir)
        if segments:
            size = segments[-1].stat().st_size
            cut = self._rng.randrange(size + 1)
            with open(segments[-1], "r+b") as handle:
                handle.truncate(cut)
        self.crashes_simulated += 1
        recovered, report = recover_system(
            crash_dir,
            num_shards=self._num_shards,
            alpha=self._alpha,
            epsilon=self._epsilon,
        )
        expect(
            report.next_seq <= len(self._journal),
            self.name,
            f"recovery from a truncated WAL claims seq {report.next_seq}, "
            f"but only {len(self._journal)} op(s) were ever logged",
        )
        for index in range(report.next_seq, len(self._journal)):
            self._replay_entry(recovered, self._journal[index], index)
        n_r, n_s = len(model.r_rows), len(model.s_rows)
        expect(
            len(recovered.shards[0].table_r) == n_r
            and len(recovered.shards[0].table_s_band) == n_s,
            self.name,
            f"after crash-recovery + replay the tables hold "
            f"{len(recovered.shards[0].table_r)}R/"
            f"{len(recovered.shards[0].table_s_band)}S, model {n_r}R/{n_s}S",
        )
        expect(
            recovered.subscription_count == model.subscription_count(),
            self.name,
            f"after crash-recovery + replay {recovered.subscription_count} "
            f"subscription(s) live, model {model.subscription_count()}",
        )


class TransportTarget(FuzzTarget):
    """Differential check of the shared-memory data plane.

    Engine ops are buffered and periodically replayed through two
    :class:`~repro.runtime.pipeline.EventPipeline` instances that differ
    *only* in backend — ``mode="process-shm"`` (columnar frames over shm
    rings) vs ``mode="inline"`` — with coalescing off so every submitted
    event produces a comparable ``(seq, deltas)`` entry.  Any divergence
    means the frame codec or the ring dropped, duplicated, or reordered
    something the in-process path did not.

    Query churn flushes the buffer first so subscriptions take effect at
    the same stream position on both sides.  This target spawns one worker
    process per shard, so it is registered in :data:`TARGET_FACTORIES` for
    explicit selection (``repro fuzz --targets transport``) but kept out of
    :data:`DEFAULT_TARGETS`.
    """

    name = "transport"
    kinds = ENGINE_KINDS

    def __init__(
        self,
        num_shards: int = 2,
        alpha: Optional[float] = 0.2,
        epsilon: float = 1.0,
        batch_size: int = 8,
    ) -> None:
        from repro.runtime.pipeline import EventPipeline

        self._pipes = {
            mode: EventPipeline(
                num_shards=num_shards,
                alpha=alpha,
                epsilon=epsilon,
                batch_size=batch_size,
                mode=mode,
                coalesce=False,
            )
            for mode in ("process-shm", "inline")
        }
        self._pending: List[Tuple[Any, ...]] = []  # (event, label)
        self._r_rows: Dict[int, RTuple] = {}
        self._s_rows: Dict[int, STuple] = {}
        self._queries: Dict[int, object] = {}
        self._closed = False

    def apply(self, op: Op, model: ModelState) -> None:
        kind, key = op.kind, op.key
        if kind == op_mod.INSERT_R:
            row = RTuple(key, op.values[0], op.values[1])
            self._r_rows[key] = row
            self._pending.append(
                (DataEvent(EventKind.INSERT, "R", row), f"insert_r #{key}")
            )
        elif kind == op_mod.INSERT_S:
            row = STuple(key, op.values[0], op.values[1])
            self._s_rows[key] = row
            self._pending.append(
                (DataEvent(EventKind.INSERT, "S", row), f"insert_s #{key}")
            )
        elif kind == op_mod.DELETE_R:
            row = self._r_rows.pop(key)
            self._pending.append(
                (DataEvent(EventKind.DELETE, "R", row), f"delete_r #{key}")
            )
        elif kind == op_mod.DELETE_S:
            row = self._s_rows.pop(key)
            self._pending.append(
                (DataEvent(EventKind.DELETE, "S", row), f"delete_s #{key}")
            )
        elif kind == op_mod.SUB_BAND:
            self._flush()
            query = BandJoinQuery(Interval(op.values[0], op.values[1]), qid=key)
            self._queries[key] = query
            for pipe in self._pipes.values():
                pipe.subscribe(query)
        elif kind == op_mod.SUB_SELECT:
            self._flush()
            query = SelectJoinQuery(
                Interval(op.values[0], op.values[1]),
                Interval(op.values[2], op.values[3]),
                qid=key,
            )
            self._queries[key] = query
            for pipe in self._pipes.values():
                pipe.subscribe(query)
        elif kind == op_mod.UNSUB:
            self._flush()
            query = self._queries.pop(key)
            for pipe in self._pipes.values():
                pipe.unsubscribe(query)

    def _flush(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        events = [entry[0] for entry in pending]
        results = {
            mode: pipe.run(list(events)) for mode, pipe in self._pipes.items()
        }
        shm_run, inline_run = results["process-shm"], results["inline"]
        expect(
            len(shm_run) == len(inline_run) == len(pending),
            self.name,
            f"process-shm applied {len(shm_run)} event(s), inline "
            f"{len(inline_run)}, submitted {len(pending)}",
        )
        for (_, label), (_, _, shm_delta), (_, _, inline_delta) in zip(
            pending, shm_run, inline_run
        ):
            got = normalize_deltas(shm_delta)
            want = normalize_deltas(inline_delta)
            expect(
                got == want,
                self.name,
                f"{label}: process-shm deltas {got} != inline deltas {want}",
            )

    def check(self, model: ModelState) -> None:
        self._flush()
        for mode, pipe in self._pipes.items():
            expect(
                pipe.subscription_count == model.subscription_count(),
                self.name,
                f"{mode} pipeline holds {pipe.subscription_count} "
                f"subscription(s), model {model.subscription_count()}",
            )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for pipe in self._pipes.values():
            pipe.close()


# -- registry ----------------------------------------------------------------

TARGET_FACTORIES: Dict[str, Callable[[], FuzzTarget]] = {
    "lazy": LazyTarget,
    "refined": RefinedTarget,
    "multidim": MultidimTarget,
    "tracker": TrackerTarget,
    "batcher": BatcherTarget,
    "sharded": EngineTarget,
    "fastpath": FastpathTarget,
    "durability": DurabilityTarget,
    # Spawns worker processes + shm segments; select explicitly with
    # ``repro fuzz --targets transport`` (deliberately not in
    # DEFAULT_TARGETS so the default campaign stays in-process).
    "transport": TransportTarget,
}

DEFAULT_TARGETS = (
    "lazy",
    "refined",
    "multidim",
    "tracker",
    "batcher",
    "sharded",
    "fastpath",
    "durability",
)
