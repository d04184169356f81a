"""Fuzz targets: adapters mapping op sequences onto production structures.

Each target owns one system under test, declares the op ``kinds`` it
consumes, applies ops as they stream by, and exposes ``check(model)`` for
the runner's periodic invariant sweep.  Items are keyed by the op ``key``
(partitions and trackers identify items by object identity, so each target
materializes its *own* interval/row/query objects).

The engine ops drive one target class, :class:`PipelineTarget`, registered
once per cell of ``(mode, batch size, durability)`` as
``pipeline/<mode>/<batch>/<volatile|durable>``.

``TARGET_FACTORIES`` is the registry the runner builds targets from; tests
inject deliberately broken implementations by overriding an entry (e.g. a
``LazyStabbingPartition`` subclass with an off-by-one trigger) and checking
the fuzzer convicts it.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from repro.check import ops as op_mod
from repro.check.ops import ENGINE_KINDS, INTERVAL_KINDS, Op
from repro.check.oracles import ModelState
from repro.check.probes import (
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
from repro.runtime.pipeline import EventPipeline
from repro.runtime.replay import delta_row_ids, normalize_deltas
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
RowIds = Dict[int, List[int]]  # qid -> row ids in the delta's order

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


def _oracle_deltas(model: ModelState, event: EngineEvent) -> Deltas:
    """What the nested-loop oracle expects ``event`` to produce (the runner
    has already applied the op to the model; deletes and subscription
    changes produce nothing)."""
    if isinstance(event, QueryEvent) or event.kind is EventKind.DELETE:
        return {}
    row = event.row
    if event.relation == "R":
        return model.oracle_r_insert_deltas(row.a, row.b)
    return model.oracle_s_insert_deltas(row.b, row.c)


def _apply_reference(
    reference: ContinuousQuerySystem, event: EngineEvent
) -> RowIds:
    """Apply one event to the unsharded reference; its non-empty lists'
    row ids, in order."""
    if isinstance(event, QueryEvent):
        if event.kind is EventKind.INSERT:
            reference.subscribe(event.query)
        else:
            reference.unsubscribe(event.query)
        return {}
    got: Dict[Any, List[Any]] = {}
    replay_data_events([event], reference, on_result=lambda _, d: got.update(d))
    return {qid: ids for qid, ids in delta_row_ids(got).items() if ids}


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


def _column_image(col: Any) -> Dict[Any, Tuple[List[float], List[int]]]:
    """A sorted column, or each bucket of a keyed one, as (keys, row ids)."""
    runs = col.items() if isinstance(col, dict) else [(None, col)]
    return {b: (list(keys), list(map(id, rows))) for b, (keys, rows) in runs}


def _expect_table_set(name: str, group: ShardGroup, model: ModelState) -> None:
    """The inline group holds each relation once, at the model's size; its
    shard reads those very objects, its whole select plane included, and
    each of its processors that can validate itself does; no table of the
    group builds a B+-tree, and every sorted column a read has built, on
    the group's R and S, equals one built now from the table's rows: the
    same keys and the very row objects, in order, and no empty bucket.  A
    column nobody has read stays unbuilt: checking it would build it."""
    n_r, n_s = len(model.r_rows), len(model.s_rows)
    expect(
        len(group.table_r) == n_r and len(group.table_s) == n_s,
        name,
        f"the table set holds {len(group.table_r)}R/{len(group.table_s)}S, "
        f"model {n_r}R/{n_s}S",
    )
    shard = group.shard
    expect(
        shard.table_r is group.table_r
        and shard.table_s_band is group.table_s
        and shard.table_s_select is group.table_s,
        name,
        "the shard reads tables other than the group's one set",
    )
    for processor in (shard.band, shard.select):
        validate = getattr(processor, "validate", None)
        if validate is not None:
            validate()
    for label, table in (("R", group.table_r), ("S", group.table_s)):
        expect(not table.built_indexes(), name, f"{label} built {sorted(table.built_indexes())}")
        fresh = type(table)()  # its columns: the rows stable-sorted on each key
        for row in table:
            fresh.insert(row)
        for col_name, col in table.built_columns().items():
            expect(
                _column_image(col) == _column_image(getattr(fresh, col_name)),
                name,
                f"{label}.{col_name} is not its rows stable-sorted on its key "
                f"(or keeps an empty bucket)",
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


# -- the pipeline target -----------------------------------------------------

#: Fixed in every cell.  Three shards keep the router's odd-K split under
#: fuzz in the process-shm cells (an inline pipeline has one shard); the
#: crash seed draws a durable cell's truncation points.
NUM_SHARDS = 3
ALPHA = 0.2
EPSILON = 1.0
CHECKPOINT_EVERY = 64
CRASH_SEED = 0xD0_0D


def cell_name(mode: str, batch_size: int, durable: bool) -> str:
    """A cell's registry name: ``pipeline/<mode>/<batch>/<volatile|durable>``."""
    return f"pipeline/{mode}/{batch_size}/{'durable' if durable else 'volatile'}"


class PipelineTarget(FuzzTarget):
    """Runs every engine op through one :class:`EventPipeline` cell,
    ``(mode, batch_size, durable)``, and through the unsharded reference.

    Ops (subscription changes among the data events, in stream order) are
    buffered and flushed every ``batch_size`` ops through ``run``, so every
    data event reports a delta; a batch of 1 is strict per-event
    application.  Each data event's deltas must equal both
    the reference's and the nested-loop oracle's, both captured when the op
    arrives (the runner applies the op to the model first, so the oracle
    sees exactly the state the batch later replays against), and against
    the reference list by list, in order: an empty or reordered list fails.
    A sweep flushes, then holds the subscription counts and the reference
    tables to the model; an inline cell also validates its one table set
    and every tree a probe reads.

    A durable cell logs to a real WAL (``fsync="never"``: the crash is
    simulated by copying files).  Each engine op logs exactly one record at
    submit, so journal index == WAL sequence number.  Every sweep simulates
    a crash between log and apply: the buffered ops are submitted, so
    logged, and before the drain that applies them the WAL tail is flushed
    to the OS, the directory copied aside and the newest segment of the
    copy cut at a random byte (possibly mid-record, possibly among records
    no shard has applied yet).  A pipeline recovered from the copy then
    re-applies the journal suffix the cut lost; its deltas must equal the
    uninterrupted run's and its final state the model's.
    """

    kinds = ENGINE_KINDS

    def __init__(self, mode: str, batch_size: int, durable: bool) -> None:
        self.name = cell_name(mode, batch_size, durable)
        self.manager: Any = None
        self._tmp: Optional[tempfile.TemporaryDirectory[str]] = None
        if durable:
            from repro.durability import DurabilityManager

            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fuzz-durability-")
            self.manager = DurabilityManager(
                Path(self._tmp.name) / "wal",
                fsync="never",
                checkpoint_every=CHECKPOINT_EVERY,
            )
        self.pipeline = EventPipeline(
            num_shards=NUM_SHARDS,
            alpha=ALPHA,
            epsilon=EPSILON,
            batch_size=batch_size,
            mode=mode,
            durability=self.manager,
        )
        if self.manager is not None:
            self.manager.attach(self.pipeline)
        self.reference = ContinuousQuerySystem(alpha=ALPHA, epsilon=EPSILON)
        self._ops = _EngineOps()
        self._rng = random.Random(CRASH_SEED)
        # One (event, label) per engine op, and a durable cell's applied
        # data events' normalized deltas by journal index.
        self._journal: List[Tuple[EngineEvent, str]] = []
        self._recorded: Dict[int, Deltas] = {}
        # Journal indices not yet submitted, with the reference's and the
        # oracle's deltas for them.
        self._pending: List[Tuple[int, RowIds, Deltas]] = []

    def apply(self, op: Op, model: ModelState) -> None:
        event = self._ops.event(op)
        reference = _apply_reference(self.reference, event)
        self._pending.append((len(self._journal), reference, _oracle_deltas(model, event)))
        self._journal.append((event, _label(op)))
        if len(self._pending) >= self.pipeline.batch_size:
            self._run_pending()

    def _run_pending(self, crash_dir: Optional[Path] = None) -> None:
        """Submit the buffered ops and check the deltas of the flushes that
        apply them; with ``crash_dir``, take the crash copy once all are
        submitted and before ``run``'s final drain."""
        pending, self._pending = self._pending, []
        journal = self._journal

        def stream() -> Iterator[EngineEvent]:
            for index, __, ___ in pending:
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
        for (index, reference, oracle), result in zip(data, results):
            check_delta_equivalence(
                self.name, journal[index][1], delta_row_ids(result[2]), reference, oracle
            )
            if self.manager is not None:
                self._recorded[index] = normalize_deltas(result[2])

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
        shutil.copytree(self.manager.directory, crash_dir)
        segments = list_segments(crash_dir)
        if segments:
            size = segments[-1].stat().st_size
            cut = self._rng.randrange(size + 1)
            with open(segments[-1], "r+b") as handle:
                handle.truncate(cut)

    def check(self, model: ModelState) -> None:
        crash_dir = None if self._tmp is None else Path(self._tmp.name) / "crash"
        self._run_pending(crash_dir)
        n_queries = model.subscription_count()
        for holder, count in (
            ("reference", self.reference.subscription_count),
            ("pipeline", self.pipeline.subscription_count),
        ):
            expect(
                count == n_queries,
                self.name,
                f"{holder} holds {count} subscription(s), model {n_queries}",
            )
        _expect_reference_tables(self.name, self.reference, model)
        if self.pipeline.mode == "inline":
            _expect_table_set(self.name, self.pipeline.shard_group, model)
        if crash_dir is not None:
            self._recover(crash_dir, model)

    def _recover(self, crash_dir: Path, model: ModelState) -> None:
        """Recover the crash copy, replay the journal suffix its cut lost,
        and hold the result to the uninterrupted run and the model."""
        from repro.durability import recover_system

        # WAL-only recovery has no checkpoint to read the configuration from.
        recovered, report = recover_system(crash_dir, alpha=ALPHA, epsilon=EPSILON)
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
        try:
            self.pipeline.close()
        finally:
            if self._tmp is not None:
                self._tmp.cleanup()


# -- registry ----------------------------------------------------------------

#: The pipeline target's cells, ``(mode, batch size, durable)``.
#: ``process-shm`` spawns a worker for every shard but shard 0, which runs
#: in the parent, so its cells stay out of :data:`DEFAULT_TARGETS`.
PIPELINE_CELLS: Tuple[Tuple[str, int, bool], ...] = (
    ("inline", 1, False),
    ("inline", 24, False),
    ("inline", 1, True),
    ("inline", 24, True),
    ("process-shm", 8, False),
    ("process-shm", 8, True),
)

TARGET_FACTORIES: Dict[str, Callable[[], FuzzTarget]] = {
    "lazy": LazyTarget,
    "refined": RefinedTarget,
    "multidim": MultidimTarget,
    "tracker": TrackerTarget,
    **{cell_name(*cell): partial(PipelineTarget, *cell) for cell in PIPELINE_CELLS},
}

DEFAULT_TARGETS = (
    "lazy",
    "refined",
    "multidim",
    "tracker",
    *(cell_name(*cell) for cell in PIPELINE_CELLS if cell[0] == "inline"),
)
