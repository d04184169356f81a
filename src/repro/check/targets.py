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
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

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
from repro.engine.events import DataEvent, EventKind, QueryEvent, replay_data_events
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.system import ContinuousQuerySystem
from repro.engine.table import RTuple, STuple
from repro.runtime.batching import MicroBatcher
from repro.runtime.pipeline import EventPipeline
from repro.runtime.replay import normalize_deltas
from repro.runtime.sharding import ShardGroup


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
    """Drives the tracker through its bulk calls: consecutive same-kind
    interval ops are buffered and applied as one ``insert(*items)`` or
    ``delete(*items)``.  A run ends at a kind change, at a cap drawn per
    run from 1–64 (fixed seed, so a sequence replays identically), or
    before a SET op — never at ``check``.  A sweep probes I1/I2/I3 and the
    oracle tau against the intervals the closed runs put into the tracker,
    so the runs, and what each sweep sees, are the same at any check
    stride.  The ops of a run still open when the sequence ends never
    reach the tracker."""

    name = "tracker"
    kinds = INTERVAL_KINDS

    def __init__(self, tracker_cls: type[Any] = HotspotTracker) -> None:
        self._tracker_cls = tracker_cls
        self._items: Dict[int, Interval] = {}
        self._alpha = 0.2
        self._epsilon = 1.0
        self._tracker = self._build([])
        self._rng = random.Random(0x7AC)
        self._run_kind = ""
        self._run: List[Tuple[int, Interval]] = []
        self._run_cap = self._rng.randint(1, 64)
        # The live set as of the last closed run: what the tracker holds.
        self._applied = ModelState()

    def _build(self, items: List[Interval]) -> Any:
        return self._tracker_cls(items, alpha=self._alpha, epsilon=self._epsilon)

    def apply(self, op: Op, model: ModelState) -> None:
        if op.kind == op_mod.INSERT_INTERVAL:
            item = Interval(op.values[0], op.values[1])
            self._items[op.key] = item
            self._buffer(op.kind, op.key, item)
        elif op.kind == op_mod.DELETE_INTERVAL:
            self._buffer(op.kind, op.key, self._items.pop(op.key))
        elif op.kind == op_mod.SET_EPSILON:
            self._flush()
            self._epsilon = op.values[0]
            self._tracker = self._build(list(self._items.values()))
        elif op.kind == op_mod.SET_ALPHA:
            self._flush()
            self._alpha = op.values[0]
            self._tracker = self._build(list(self._items.values()))

    def _buffer(self, kind: str, key: int, item: Interval) -> None:
        if kind != self._run_kind:
            self._flush()
            self._run_kind = kind
        self._run.append((key, item))
        if len(self._run) >= self._run_cap:
            self._flush()

    def _flush(self) -> None:
        if not self._run:
            return
        run, self._run = self._run, []
        self._run_cap = self._rng.randint(1, 64)
        applied = self._applied.intervals
        if self._run_kind == op_mod.INSERT_INTERVAL:
            self._tracker.insert(*(item for _, item in run))
            applied.update((key, (item.lo, item.hi)) for key, item in run)
        else:
            self._tracker.delete(*(item for _, item in run))
            for key, _ in run:
                del applied[key]

    def check(self, model: ModelState) -> None:
        check_tracker(self.name, self._tracker, self._applied)


# -- engine-domain targets ---------------------------------------------------

EngineEvent = Union[DataEvent, QueryEvent]
Deltas = Dict[int, Tuple[int, ...]]  # normalized: qid -> sorted row ids

_ROW_OPS = {
    op_mod.INSERT_R: (EventKind.INSERT, "R"),
    op_mod.DELETE_R: (EventKind.DELETE, "R"),
    op_mod.INSERT_S: (EventKind.INSERT, "S"),
    op_mod.DELETE_S: (EventKind.DELETE, "S"),
}


class _EngineOps:
    """The one engine-op → event translation every engine-domain target
    shares.  It owns the objects an op ``key`` stands for: a delete or an
    unsubscribe hands back the row or query its insert created."""

    def __init__(self) -> None:
        self._rows: Dict[Tuple[str, int], Any] = {}
        self._queries: Dict[int, Any] = {}

    def event(self, op: Op) -> EngineEvent:
        key, values = op.key, op.values
        if op.kind in _ROW_OPS:
            kind, relation = _ROW_OPS[op.kind]
            if kind is EventKind.DELETE:
                return DataEvent(kind, relation, self._rows.pop((relation, key)))
            row: Any = (
                RTuple(key, values[0], values[1])
                if relation == "R"
                else STuple(key, values[0], values[1])
            )
            self._rows[relation, key] = row
            return DataEvent(kind, relation, row)
        if op.kind == op_mod.UNSUB:
            return QueryEvent(EventKind.DELETE, self._queries.pop(key))
        query: Any
        if op.kind == op_mod.SUB_BAND:
            query = BandJoinQuery(Interval(values[0], values[1]), qid=key)
        elif op.kind == op_mod.SUB_SELECT:
            query = SelectJoinQuery(
                Interval(values[0], values[1]),
                Interval(values[2], values[3]),
                qid=key,
            )
        else:
            raise ValueError(f"not an engine op: {op.kind}")
        self._queries[key] = query
        return QueryEvent(EventKind.INSERT, query)


def _label(op: Op) -> str:
    return f"{op.kind} #{op.key}"


def _oracle_deltas(model: ModelState, event: DataEvent) -> Deltas:
    """What the nested-loop oracle expects ``event`` to produce (the runner
    has already applied the op to the model; deletes produce nothing)."""
    if event.kind is EventKind.DELETE:
        return {}
    row = event.row
    if event.relation == "R":
        return model.oracle_r_insert_deltas(row.a, row.b)
    return model.oracle_s_insert_deltas(row.b, row.c)


def _apply_reference(
    reference: ContinuousQuerySystem, event: EngineEvent
) -> Deltas:
    """Apply one event to the unsharded reference; its normalized deltas."""
    if isinstance(event, QueryEvent):
        if event.kind is EventKind.INSERT:
            reference.subscribe(event.query)
        else:
            reference.unsubscribe(event.query)
        return {}
    got: Deltas = {}
    replay_data_events(
        [event], reference, on_result=lambda _, d: got.update(normalize_deltas(d))
    )
    return got


def _run_one(
    name: str, pipeline: EventPipeline, event: EngineEvent, label: str
) -> Deltas:
    """Push one event through ``pipeline`` and drain it; the normalized
    deltas of that event (a query event answers nothing)."""
    results = pipeline.run([event])
    expected = 1 if isinstance(event, DataEvent) else 0
    expect(
        len(results) == expected,
        name,
        f"{label}: the pipeline reported {len(results)} applied event(s), "
        f"expected {expected}",
    )
    return normalize_deltas(results[0][2]) if results else {}


class BatcherTarget(FuzzTarget):
    """Feeds row events through a :class:`MicroBatcher`, draining whenever
    it is due and fully at every check round, verifying each drain against
    the naive pair-cancellation model."""

    name = "batcher"
    kinds = frozenset(_ROW_OPS)

    def __init__(self, max_batch: int = 16) -> None:
        self.batcher = MicroBatcher(max_batch)
        self._ops = _EngineOps()
        self._seq = 0
        # Shadow of the pending queue: (seq, relation, row_id, kind).
        self._shadow: List[Tuple[Any, ...]] = []

    def apply(self, op: Op, model: ModelState) -> None:
        event = self._ops.event(op)
        assert isinstance(event, DataEvent)
        seq = self._seq
        self._seq += 1
        self.batcher.add((seq, event, 0))
        kind = "insert" if event.kind is EventKind.INSERT else "delete"
        self._shadow.append((seq, event.relation, op.key, kind))
        if self.batcher.is_due:
            self._drain_once()

    def _drain_once(self) -> None:
        before = list(self._shadow)
        pairs_seen = len(self.batcher.stats.cancelled)
        batch = self.batcher.drain()
        pairs = list(self.batcher.stats.cancelled[pairs_seen:])
        drained = [entry[0] for entry in batch]
        remaining = [entry[0] for entry in self.batcher._pending]
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


def _expect_table_set(name: str, group: ShardGroup, model: ModelState) -> None:
    """The group holds each relation once, at the model's size; every shard
    reads those very objects and each of its processors that can validate
    itself does; the shards' select slices partition S."""
    n_r, n_s = len(model.r_rows), len(model.s_rows)
    expect(
        len(group.table_r) == n_r and len(group.table_s) == n_s,
        name,
        f"the table set holds {len(group.table_r)}R/{len(group.table_s)}S, "
        f"model {n_r}R/{n_s}S",
    )
    for shard in group.shards:
        expect(
            shard.table_r is group.table_r and shard.table_s_band is group.table_s,
            name,
            f"shard {shard.index} reads tables other than the group's one set",
        )
        for processor in (shard.band, shard.select):
            validate = getattr(processor, "validate", None)
            if validate is not None:
                validate()
    select_total = sum(len(shard.table_s_select) for shard in group.shards)
    expect(
        select_total == n_s,
        name,
        f"S select partition holds {select_total} rows fleet-wide, "
        f"model {n_s} (slices must be disjoint and exhaustive)",
    )


def _expect_reference_tables(
    name: str, reference: ContinuousQuerySystem, model: ModelState
) -> None:
    n_r, n_s = len(model.r_rows), len(model.s_rows)
    expect(
        len(reference.table_r) == n_r and len(reference.table_s) == n_s,
        name,
        f"reference tables hold {len(reference.table_r)}R/"
        f"{len(reference.table_s)}S, model {n_r}R/{n_s}S",
    )


class EngineTarget(FuzzTarget):
    """Runs every engine op through a per-event sharded pipeline
    (``batch_size=1``: each event is its own batch) *and* the unsharded
    reference, comparing per-event deltas between the two and against the
    model's nested-loop oracle."""

    name = "sharded"
    kinds = ENGINE_KINDS

    def __init__(
        self,
        num_shards: int = 3,
        alpha: Optional[float] = 0.2,
        epsilon: float = 1.0,
    ) -> None:
        self.sharded = EventPipeline(
            num_shards=num_shards, alpha=alpha, epsilon=epsilon, batch_size=1
        )
        self.reference = ContinuousQuerySystem(alpha=alpha, epsilon=epsilon)
        self._ops = _EngineOps()

    def apply(self, op: Op, model: ModelState) -> None:
        event, label = self._ops.event(op), _label(op)
        got_reference = _apply_reference(self.reference, event)
        got_sharded = _run_one(self.name, self.sharded, event, label)
        if isinstance(event, DataEvent):
            check_delta_equivalence(
                self.name, label, got_sharded, got_reference, _oracle_deltas(model, event)
            )

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
            f"sharded pipeline holds {self.sharded.subscription_count} "
            f"subscription(s), model {n_queries}",
        )
        _expect_reference_tables(self.name, self.reference, model)
        _expect_table_set(self.name, self.sharded.shard_group, model)


class FastpathTarget(FuzzTarget):
    """Exercises the columnar batch fast path: engine events — subscription
    changes among the data events, in stream order — are deferred into a
    pending buffer and flushed through a batching pipeline
    (``batch_size=max_batch``, coalescing off so every data event reports a
    delta), whose per-event deltas must match both the per-event reference
    system and the model's nested-loop oracle.

    Oracle deltas are captured *at op arrival* (the runner applies the op to
    the model first, so the oracle sees exactly the state the batched system
    will later replay against).
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
        self.batched = EventPipeline(
            num_shards=num_shards,
            alpha=alpha,
            epsilon=epsilon,
            batch_size=max_batch,
            coalesce=False,
        )
        self.reference = ContinuousQuerySystem(alpha=alpha, epsilon=epsilon)
        self._ops = _EngineOps()
        # Pending (event, label, reference deltas, oracle deltas); a
        # subscription change is an entry with empty deltas.
        self._pending: List[Tuple[EngineEvent, str, Deltas, Deltas]] = []

    def apply(self, op: Op, model: ModelState) -> None:
        event = self._ops.event(op)
        got_reference = _apply_reference(self.reference, event)
        want = _oracle_deltas(model, event) if isinstance(event, DataEvent) else {}
        self._pending.append((event, _label(op), got_reference, want))
        if len(self._pending) >= self.batched.batch_size:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        results = self.batched.run([entry[0] for entry in pending])
        pending = [entry for entry in pending if isinstance(entry[0], DataEvent)]
        # The batch probe reads each join-key tree's flat mirror; holding it
        # to the leaf chain here fuzzes its in-place insert/remove upkeep.
        tables = self.batched.shard_group
        tables.table_r.by_b.check_invariants()
        tables.table_s.by_b.check_invariants()
        expect(
            len(results) == len(pending),
            self.name,
            f"the pipeline applied {len(results)} of {len(pending)} event(s)",
        )
        for (_, label, got_reference, want), result in zip(pending, results):
            check_delta_equivalence(
                self.name, label, normalize_deltas(result[2]), got_reference, want
            )

    def check(self, model: ModelState) -> None:
        self.flush()
        _expect_reference_tables(self.name, self.reference, model)
        _expect_table_set(self.name, self.batched.shard_group, model)


class DurabilityTarget(FuzzTarget):
    """Crash-injects the durability subsystem and checks exact recovery.

    Engine ops drive a WAL-logged pipeline in micro-batches of
    ``batch_size`` entries (coalescing off, so every data event reports a
    delta; ``fsync="never"`` — the fuzzer simulates the crash by copying
    files, so real fsyncs would only slow it down).  A journal records
    every op; a data event's normalized delta joins it when the flush that
    applied it returns, after a check against the oracle deltas captured
    at op arrival.  Each engine op logs exactly one WAL record at submit,
    so journal index == WAL sequence number.

    Every ``check`` round simulates a crash between log and apply: the
    ops still buffered are submitted — so logged — and, before the drain
    that applies them, the WAL tail is flushed to the OS, the durability
    directory copied aside and the newest WAL segment of the copy
    truncated at a random byte offset (possibly mid-record, possibly
    mid-header, possibly among records no shard has applied yet).  A fresh
    pipeline recovered from the copy then re-applies the journal suffix
    the truncation lost.  Its deltas must equal the uninterrupted
    pipeline's, and its final state the model's — any divergence means
    recovery lost, duplicated, or reordered an event.
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
        batch_size: int = 24,
    ) -> None:
        from repro.durability import DurabilityManager

        self._tmp = tempfile.TemporaryDirectory(prefix="repro-fuzz-durability-")
        self._wal_dir = Path(self._tmp.name) / "wal"
        self.manager = DurabilityManager(
            self._wal_dir, fsync="never", checkpoint_every=checkpoint_every
        )
        self.pipeline = EventPipeline(
            num_shards=num_shards,
            alpha=alpha,
            epsilon=epsilon,
            batch_size=batch_size,
            coalesce=False,
            durability=self.manager,
        )
        self.manager.attach(self.pipeline)
        self._rng = random.Random(crash_seed)
        self._ops = _EngineOps()
        # One entry per engine op: (event, label); a data event's
        # normalized live deltas by journal index, once applied.
        self._journal: List[Tuple[EngineEvent, str]] = []
        self._recorded: Dict[int, Deltas] = {}
        # Journal indices not yet submitted, with their oracle deltas.
        self._pending: List[Tuple[int, Deltas]] = []

    def apply(self, op: Op, model: ModelState) -> None:
        event = self._ops.event(op)
        want = _oracle_deltas(model, event) if isinstance(event, DataEvent) else {}
        self._pending.append((len(self._journal), want))
        self._journal.append((event, _label(op)))
        if len(self._pending) >= self.pipeline.batch_size:
            self._run_pending()

    def _run_pending(self, crash_dir: Optional[Path] = None) -> None:
        """Submit the buffered ops and journal the deltas of the flushes
        that apply them; with ``crash_dir``, take the crash copy once all
        are submitted and before ``run``'s final drain."""
        pending, self._pending = self._pending, []
        journal = self._journal

        def stream() -> Iterator[EngineEvent]:
            for index, __ in pending:
                yield journal[index][0]
            if crash_dir is not None:
                self._crash(crash_dir)

        results = self.pipeline.run(stream())
        data = [entry for entry in pending if isinstance(journal[entry[0]][0], DataEvent)]
        expect(
            len(results) == len(data),
            self.name,
            f"the pipeline applied {len(results)} of {len(data)} event(s)",
        )
        for (index, want), result in zip(data, results):
            got = normalize_deltas(result[2])
            check_delta_equivalence(self.name, journal[index][1], got, got, want)
            self._recorded[index] = got

    def _crash(self, crash_dir: Path) -> None:
        """Freeze the durability directory as a crash would leave it, into
        ``crash_dir``, with the newest WAL segment cut at a random byte."""
        from repro.durability.wal import list_segments

        expect(
            self.manager.next_seq == len(self._journal),
            self.name,
            f"WAL advanced to seq {self.manager.next_seq} after "
            f"{len(self._journal)} engine op(s); every op must log exactly "
            "one record",
        )
        self.manager.wal.flush()
        if crash_dir.exists():
            shutil.rmtree(crash_dir)
        shutil.copytree(self._wal_dir, crash_dir)
        segments = list_segments(crash_dir)
        if segments:
            size = segments[-1].stat().st_size
            cut = self._rng.randrange(size + 1)
            with open(segments[-1], "r+b") as handle:
                handle.truncate(cut)

    def check(self, model: ModelState) -> None:
        from repro.durability import recover_system

        crash_dir = Path(self._tmp.name) / "crash"
        self._run_pending(crash_dir)
        _expect_table_set(self.name, self.pipeline.shard_group, model)
        # WAL-only recovery has no manifest to read the configuration from.
        recovered, report = recover_system(
            crash_dir,
            num_shards=self.pipeline.router.num_shards,
            alpha=self.pipeline.alpha,
            epsilon=self.pipeline.epsilon,
        )
        expect(
            report.next_seq <= len(self._journal),
            self.name,
            f"recovery from a truncated WAL claims seq {report.next_seq}, "
            f"but only {len(self._journal)} op(s) were ever logged",
        )
        for index in range(report.next_seq, len(self._journal)):
            event, label = self._journal[index]
            recorded = self._recorded.get(index, {})
            got = _run_one(self.name, recovered, event, label)
            expect(
                got == recorded,
                self.name,
                f"recovered replay of journal[{index}] ({label}) produced "
                f"{got}, uninterrupted run produced {recorded}",
            )
        _expect_table_set(self.name, recovered.shard_group, model)
        expect(
            recovered.subscription_count == model.subscription_count(),
            self.name,
            f"after crash-recovery + replay {recovered.subscription_count} "
            f"subscription(s) live, model {model.subscription_count()}",
        )

    def close(self) -> None:
        self.manager.close()
        self._tmp.cleanup()


class TransportTarget(FuzzTarget):
    """Differential check of the shared-memory data plane.

    Engine ops — subscription changes among the data events, in stream
    order — are buffered and periodically replayed through two
    :class:`~repro.runtime.pipeline.EventPipeline` instances that differ
    *only* in backend — ``mode="process-shm"`` (columnar frames over shm
    rings) vs ``mode="inline"`` — with coalescing off so every submitted
    data event produces a comparable ``(seq, deltas)`` entry.  Any
    divergence means the frame codec or the ring dropped, duplicated, or
    reordered something the in-process path did not.

    This target spawns one worker process per shard, so it is registered in
    :data:`TARGET_FACTORIES` for explicit selection (``repro fuzz --targets
    transport``) but kept out of :data:`DEFAULT_TARGETS`.
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
        self._ops = _EngineOps()
        self._pending: List[Tuple[EngineEvent, str]] = []
        self._closed = False

    def apply(self, op: Op, model: ModelState) -> None:
        self._pending.append((self._ops.event(op), _label(op)))

    def _flush(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        events = [entry[0] for entry in pending]
        results = {
            mode: pipe.run(list(events)) for mode, pipe in self._pipes.items()
        }
        pending = [entry for entry in pending if isinstance(entry[0], DataEvent)]
        shm_run, inline_run = results["process-shm"], results["inline"]
        expect(
            len(shm_run) == len(inline_run) == len(pending),
            self.name,
            f"process-shm applied {len(shm_run)} event(s), inline "
            f"{len(inline_run)}, submitted {len(pending)}",
        )
        for (_, label), shm, inline in zip(pending, shm_run, inline_run):
            got = normalize_deltas(shm[2])
            want = normalize_deltas(inline[2])
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
