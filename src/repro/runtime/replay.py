"""Deterministic replay: recorded streams, equivalence checking, reports.

The replay driver is the runtime's correctness harness: it feeds one
recorded mixed stream (data inserts/deletes plus subscribe/unsubscribe
events) through both the sharded+batched :class:`EventPipeline` and the
unsharded :class:`~repro.engine.system.ContinuousQuerySystem`, then
compares the per-event result deltas query by query.

Rows in a recorded stream carry pre-assigned surrogate ids, so both
systems apply bit-identical tuples (via the row-level
``insert_r_row``/``insert_s_row`` API and
:func:`~repro.engine.events.replay_data_events`).

Equivalence contract: every data event is applied, and its merged sharded
deltas equal the unsharded deltas exactly — the same queries, each with
the same row ids in the same order — including an insert and a delete of
the same row inside one batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TypeVar

from repro.engine.events import DataEvent, EventKind, QueryEvent, replay_data_events
from repro.engine.system import ContinuousQuerySystem
from repro.engine.table import RTuple, STuple
from repro.runtime.pipeline import EventPipeline
from repro.workload.generator import make_band_join_queries, make_select_join_queries
from repro.workload.params import WorkloadParams

_Row = TypeVar("_Row")
#: qid -> row ids, in list order.
RowIds = Dict[int, List[int]]


@dataclass
class StreamProfile:
    """Knobs for :func:`generate_mixed_stream` (all deterministic per seed).

    ``delete_fraction`` of data events remove a previously inserted row;
    ``churn`` of those deletions target a *recent* row (inserted within the
    last ``recent_window`` events), so a row's insert and delete often
    share a batch and the shards must strike the row from the events
    outside its visibility interval.  With ``churn=0`` deletions only touch
    rows older than ``min_delete_age`` events, so no row is inserted and
    deleted inside one batch.
    """

    n_events: int = 10_000
    n_initial_queries: int = 120
    band_fraction: float = 0.3
    query_event_fraction: float = 0.02
    delete_fraction: float = 0.2
    churn: float = 0.0
    min_delete_age: int = 1024
    recent_window: int = 16
    seed: int = 0


def generate_mixed_stream(
    profile: StreamProfile, params: Optional[WorkloadParams] = None
) -> List[object]:
    """A reproducible mixed event stream over the Table 1 distributions.

    Returns a list of :class:`DataEvent`/:class:`QueryEvent`; the first
    ``n_initial_queries`` entries subscribe the starting query population.
    """
    params = params if params is not None else WorkloadParams(seed=profile.seed)
    rng = random.Random(profile.seed)
    stream: List[object] = []
    live_queries: List[object] = []

    def new_query() -> Any:
        if rng.random() < profile.band_fraction:
            return make_band_join_queries(params, 1, rng)[0]
        return make_select_join_queries(params, 1, rng)[0]

    for __ in range(profile.n_initial_queries):
        query = new_query()
        live_queries.append(query)
        stream.append(QueryEvent(EventKind.INSERT, query))

    next_rid = 0
    next_sid = 0
    live_r: List[Tuple[int, RTuple]] = []  # (data-event position, row)
    live_s: List[Tuple[int, STuple]] = []
    grid = params.join_key_grid
    step = params.domain_width / grid if grid else None

    def join_key() -> float:
        x = rng.uniform(params.domain_lo, params.domain_hi)
        if step:
            x = params.domain_lo + round((x - params.domain_lo) / step) * step
        return float(round(x)) if params.integer_valued else x

    def attr() -> float:
        x = rng.uniform(params.domain_lo, params.domain_hi)
        return float(round(x)) if params.integer_valued else x

    def pick_victim(live: List[Tuple[int, _Row]], position: int) -> Optional[_Row]:
        """A deletable row: recent under churn, old otherwise."""
        if rng.random() < profile.churn:
            eligible = [i for i, (at, _) in enumerate(live) if position - at <= profile.recent_window]
        else:
            eligible = [i for i, (at, _) in enumerate(live) if position - at >= profile.min_delete_age]
        if not eligible:
            return None
        index = eligible[rng.randrange(len(eligible))]
        live[index], live[-1] = live[-1], live[index]
        return live.pop()[1]

    position = 0
    while position < profile.n_events:
        roll = rng.random()
        if roll < profile.query_event_fraction:
            if live_queries and rng.random() < 0.5:
                index = rng.randrange(len(live_queries))
                live_queries[index], live_queries[-1] = live_queries[-1], live_queries[index]
                stream.append(QueryEvent(EventKind.DELETE, live_queries.pop()))
            else:
                query = new_query()
                live_queries.append(query)
                stream.append(QueryEvent(EventKind.INSERT, query))
            continue  # query events don't consume a data-event position
        relation = "R" if rng.random() < 0.5 else "S"
        live = live_r if relation == "R" else live_s
        victim = None
        if rng.random() < profile.delete_fraction:
            victim = pick_victim(live, position)
        if victim is not None:
            stream.append(DataEvent(EventKind.DELETE, relation, victim))
        elif relation == "R":
            r_row = RTuple(next_rid, attr(), join_key())
            next_rid += 1
            live_r.append((position, r_row))
            stream.append(DataEvent(EventKind.INSERT, "R", r_row))
        else:
            s_row = STuple(next_sid, join_key(), attr())
            next_sid += 1
            live_s.append((position, s_row))
            stream.append(DataEvent(EventKind.INSERT, "S", s_row))
        position += 1
    return stream


# -- equivalence -------------------------------------------------------------


def delta_row_ids(deltas: Dict[Any, List[Any]]) -> RowIds:
    """qid -> row ids in list order, an empty list kept."""
    return {
        query.qid: [row.sid if isinstance(row, STuple) else row.rid for row in rows]
        for query, rows in deltas.items()
    }


def _nonempty_row_ids(deltas: Dict[Any, List[Any]]) -> RowIds:
    """qid -> row ids in list order, empty lists dropped."""
    return {qid: ids for qid, ids in delta_row_ids(deltas).items() if ids}


def normalize_deltas(deltas: Dict[Any, List[Any]]) -> Dict[int, Tuple[int, ...]]:
    """Canonical form for comparison: qid -> sorted row ids, empty lists
    dropped."""
    return {qid: tuple(sorted(ids)) for qid, ids in delta_row_ids(deltas).items() if ids}


@dataclass
class ReplayReport:
    """Outcome of one replay equivalence run."""

    events: int = 0
    data_events: int = 0
    applied: int = 0
    compared: int = 0
    mismatches: List[str] = field(default_factory=list)
    reference_results: int = 0
    pipeline_results: int = 0
    metrics: Dict[str, object] = field(default_factory=dict)
    router_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "EQUIVALENT" if self.equivalent else f"{len(self.mismatches)} MISMATCHES"
        return (
            f"replay: {status} — {self.data_events} data events "
            f"({self.applied} applied), "
            f"{self.compared} compared, "
            f"{self.pipeline_results} result rows (reference {self.reference_results})"
        )


def run_replay(
    stream: List[object],
    *,
    num_shards: int = 4,
    batch_size: int = 64,
    alpha: Optional[float] = 0.01,
    epsilon: float = 1.0,
    mode: str = "inline",
    max_mismatches: int = 20,
) -> ReplayReport:
    """Replay ``stream`` through a pipeline and the unsharded reference and
    compare every data event's deltas, list by list in order.
    Deterministic given the stream."""
    report = ReplayReport(events=len(stream))

    # Reference pass: per-data-event row ids, in stream order.
    reference = ContinuousQuerySystem(alpha=alpha, epsilon=epsilon)
    reference_deltas: List[RowIds] = []

    def record(event: DataEvent, deltas: Dict[Any, List[Any]]) -> None:
        ids = _nonempty_row_ids(deltas)
        reference_deltas.append(ids)
        report.reference_results += sum(map(len, ids.values()))

    for event in stream:
        if isinstance(event, QueryEvent):
            if event.kind is EventKind.INSERT:
                reference.subscribe(event.query)
            else:
                reference.unsubscribe(event.query)
        else:
            replay_data_events([event], reference, on_result=record)
    report.data_events = len(reference_deltas)

    # Pipeline pass.
    with EventPipeline(
        num_shards=num_shards,
        alpha=alpha,
        epsilon=epsilon,
        batch_size=batch_size,
        mode=mode,
    ) as pipeline:
        results = pipeline.run(stream)
        report.applied = len(results)
        got: Dict[int, RowIds] = {}
        for seq, __, deltas in results:
            ids = _nonempty_row_ids(deltas)
            got[seq] = ids
            report.pipeline_results += sum(map(len, ids.values()))

        for seq, want in enumerate(reference_deltas):
            report.compared += 1
            have = got.get(seq, {})
            if have != want:
                if len(report.mismatches) < max_mismatches:
                    report.mismatches.append(
                        f"seq {seq}: pipeline {have!r} != reference {want!r}"
                    )
                else:
                    report.mismatches.append("... (truncated)")
                    break
        report.metrics = pipeline.metrics.snapshot()
        report.router_stats = pipeline.router.stats()
    return report
