"""Domain sharding for the continuous-query runtime.

The runtime splits the **subscriptions** across ``K`` shards; the base
relations are not split, and not copied either: a process holds one
``TableR`` and one ``TableS`` (:class:`ShardGroup`), written once per data
event, and every shard's processors probe those same two objects.  A shard
is a partition of the queries — the paper's hotspot groups are the heavy
side, so they are what gets partitioned.  Queries are placed on two
*planes*, one per query template, because the two templates constrain
different attributes:

* **select plane** — :class:`~repro.engine.queries.SelectJoinQuery`
  subscriptions are routed by their ``rangeC`` selection over the value
  domain, to *every* shard their range overlaps.  Each shard also keeps a
  C-slice of S (``table_s_select``: an S row lives in exactly one slice)
  for its select processor.  An incoming S-tuple therefore probes the
  select queries of a **single** shard — the unsharded processors scan all
  select queries per S-arrival, so this is where sharding buys real
  per-event work reduction.  An incoming R-tuple probes every shard, and
  because the slices are disjoint, the per-shard deltas for a query
  spanning several shards are disjoint partial results whose union equals
  the unsharded delta.

* **band plane** — :class:`~repro.engine.queries.BandJoinQuery`
  subscriptions are routed by band midpoint over the *difference* domain
  (``S.B - R.B``) to exactly one shard.  A band match depends on the
  difference of two join keys, so no single-attribute partition of the
  base tables can localize it: every data event reaches every shard, and
  each shard probes the full shared tables for its slice of the bands
  (with its own hotspot tracker).

A batch has **one view**: every data event reaches every shard, so routing
an event is one integer — :meth:`ShardRouter.route_event` names the
select-plane *owner* of an S row (-1 for an R row) — and a batch is one
list of ``(seq, event, owner)`` entries (:data:`ShardEntry`) that every
shard reads, in this process or, as one frame, in a worker.  The router is
the only place that knows the placement policy; a shard decides "my
C-slice?" as ``owner == self.index``.

Every routing decision is **static**: it depends only on the coordinates of
the row or query, never on the current subscription set.  That invariant is
what makes the sharded pipeline exactly equivalent to the unsharded
:class:`~repro.engine.system.ContinuousQuerySystem` — a row is stored by
the same rule that later routes its deletion, and a query subscribed
mid-stream finds all prior state already in the tables it reads.

This module is the router, the shard and the table-set owner, nothing that
drives them: :class:`~repro.runtime.pipeline.EventPipeline` is the one
owner of placements, and its backends make every
:meth:`ShardGroup.apply_batch` call — in ``inline`` mode on one group of
all K shards, in a ``process-shm`` worker on a group of one.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.events import DataEvent, EventKind
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.table import STuple, TableR, TableS
from repro.operators.band_join import BJSSI
from repro.operators.hotspot_processor import (
    HotspotBandJoinProcessor,
    HotspotSelectJoinProcessor,
)
from repro.obs.hotspot_telemetry import HeadroomSample, HotspotTelemetry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.operators.select_join import SJSSI
from repro.runtime.metrics import HotspotMetricsListener, MetricsRegistry

DOMAIN_LO = 0.0
DOMAIN_HI = 10_000.0

# The operator layer (repro.operators / repro.engine) is typed ``Any`` at
# the shard boundary: queries and rows flow through the runtime opaquely.
Delta = Dict[Any, List[Any]]
# One event of a batch: (seq, event, owner) — ``owner`` is the select-plane
# shard of an S row (:meth:`ShardRouter.route_event`), -1 for an R row.
ShardEntry = Tuple[int, DataEvent, int]
# Per-shard batch outcome: probe seconds plus (seq, deltas) pairs.
ShardBatchResults = Dict[int, Tuple[float, List[Tuple[int, Delta]]]]
ResultCallback = Callable[[Any, Any, List[Any]], None]


def scaled_alpha(alpha: Optional[float], num_shards: int) -> Optional[float]:
    """Per-shard hotspot threshold keeping the *absolute* promotion bar
    constant across the fleet.

    Each shard's :class:`~repro.core.hotspot_tracker.HotspotTracker`
    promotes a stabbing group once it holds ``alpha * n_shard`` items.  With
    queries split ``K`` ways, an unscaled alpha would drop the absolute bar
    by ``K`` and promote up to ``K * 2/alpha`` groups fleet-wide — and every
    broadcast R-arrival would pay a group probe for each of them, erasing
    the sharding win.  Scaling to ``alpha * K`` (capped at 1) restores the
    unsharded bar ``alpha * n_total``, so the fleet-wide group count (and
    hence broadcast probe cost) matches the unsharded processor's.
    """
    if alpha is None:
        return None
    return min(1.0, alpha * num_shards)


@dataclass(frozen=True, slots=True)
class ShardRange:
    """One contiguous slice of a routing domain (for introspection; the
    router itself routes by bisecting the boundary list, so the outermost
    ranges implicitly extend to infinity)."""

    index: int
    lo: float
    hi: float


class ShardRouter:
    """Routes queries and data events to shard indices.

    The value domain ``[domain_lo, domain_hi]`` is split into ``num_shards``
    contiguous ranges for the select plane; the difference domain
    ``[-(width), +width]`` is split likewise for the band plane.  Routing
    clamps out-of-domain coordinates into the edge shards, which affects
    load balance only, never correctness.
    """

    def __init__(
        self,
        num_shards: int,
        *,
        domain_lo: float = DOMAIN_LO,
        domain_hi: float = DOMAIN_HI,
    ):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if domain_lo >= domain_hi:
            raise ValueError("domain_lo must be < domain_hi")
        self.num_shards = num_shards
        self.domain_lo = domain_lo
        self.domain_hi = domain_hi
        width = domain_hi - domain_lo
        self._value_bounds = [
            domain_lo + width * i / num_shards for i in range(1, num_shards)
        ]
        self._band_bounds = [
            -width + 2 * width * i / num_shards for i in range(1, num_shards)
        ]
        # Rebalancing stats: query placements and event routing per shard.
        self.select_queries_per_shard = [0] * num_shards
        self.band_queries_per_shard = [0] * num_shards
        self.events = 0
        self.select_probes_per_shard = [0] * num_shards

    # -- routing domains -----------------------------------------------------

    def value_ranges(self) -> List[ShardRange]:
        bounds = [self.domain_lo, *self._value_bounds, self.domain_hi]
        return [ShardRange(i, bounds[i], bounds[i + 1]) for i in range(self.num_shards)]

    def band_ranges(self) -> List[ShardRange]:
        width = self.domain_hi - self.domain_lo
        bounds = [-width, *self._band_bounds, width]
        return [ShardRange(i, bounds[i], bounds[i + 1]) for i in range(self.num_shards)]

    # -- query routing -------------------------------------------------------

    def shard_for_value(self, c: float) -> int:
        """The select-plane shard owning value coordinate ``c``."""
        return bisect_right(self._value_bounds, c)

    def shard_for_band(self, query: BandJoinQuery) -> int:
        mid = (query.band.lo + query.band.hi) / 2.0
        return bisect_right(self._band_bounds, mid)

    def shards_for_query(self, query: Any) -> List[int]:
        """All shard indices a subscription registers in.

        Select-joins go to every shard their ``rangeC`` overlaps (their
        partial results partition along the S-row C-partition); band joins
        go to the single shard containing their band midpoint (every shard
        probes the full tables, so multi-registration would duplicate deltas).
        """
        if isinstance(query, SelectJoinQuery):
            lo = self.shard_for_value(query.range_c.lo)
            hi = self.shard_for_value(query.range_c.hi)
            return list(range(lo, hi + 1))
        if isinstance(query, BandJoinQuery):
            return [self.shard_for_band(query)]
        raise TypeError(f"unsupported query type: {type(query).__name__}")

    # -- event routing -------------------------------------------------------

    def route_event(self, event: DataEvent) -> int:
        """The select-plane owner of a data event, -1 for an R event.

        Every data event reaches every shard's band plane (band matches
        cannot be localized) and, for R events, every select plane; an S
        event probes and is stored on exactly one select plane — the shard
        owning ``row.c``, which is the whole routing decision.
        """
        if event.relation == "S":
            return self.shard_for_value(event.row.c)
        return -1

    # -- stats ---------------------------------------------------------------

    def note_query(self, query: Any, indices: Sequence[int], delta: int) -> None:
        counts = (
            self.select_queries_per_shard
            if isinstance(query, SelectJoinQuery)
            else self.band_queries_per_shard
        )
        for index in indices:
            counts[index] += delta

    def note_event(self, owner: int) -> None:
        self.events += 1
        if owner >= 0:
            self.select_probes_per_shard[owner] += 1

    @property
    def events_per_shard(self) -> List[int]:
        """Every data event reaches every shard."""
        return [self.events] * self.num_shards

    @staticmethod
    def _imbalance(loads: Sequence[int]) -> float:
        total = sum(loads)
        if not total:
            return 1.0
        return max(loads) / (total / len(loads))

    def stats(self) -> Dict[str, object]:
        """Load distribution snapshot; ``*_imbalance`` is max-shard load over
        mean-shard load (1.0 = perfectly balanced), the signal a rebalancer
        would act on by re-splitting the domain."""
        return {
            "num_shards": self.num_shards,
            "select_queries_per_shard": list(self.select_queries_per_shard),
            "band_queries_per_shard": list(self.band_queries_per_shard),
            "events_per_shard": self.events_per_shard,
            "select_probes_per_shard": list(self.select_probes_per_shard),
            "select_query_imbalance": self._imbalance(self.select_queries_per_shard),
            "band_query_imbalance": self._imbalance(self.band_queries_per_shard),
            "select_probe_imbalance": self._imbalance(self.select_probes_per_shard),
        }


class Shard:
    """One partition of the queries over tables it is handed and never
    writes.

    Holds a band-join and a select-join processor (each with its own
    tracker when ``alpha`` is set).  ``table_r`` and ``table_s_band`` are
    the process's shared relations — the :class:`ShardGroup` that built
    this shard is their one writer; ``table_s_select`` is the shard's own
    C-slice of S, which only its select processor reads and only
    :meth:`apply`/:meth:`apply_batch` write.
    """

    def __init__(
        self,
        index: int,
        table_r: TableR,
        table_s_band: TableS,
        *,
        alpha: Optional[float] = 0.01,
        epsilon: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.index = index
        self.tracer = tracer
        self.table_r = table_r
        self.table_s_band = table_s_band
        self.table_s_select = TableS()
        self.band: Any
        self.select: Any
        self.telemetry: Optional[HotspotTelemetry] = None
        if alpha is None:
            self.band = BJSSI(self.table_s_band, self.table_r, epsilon=epsilon)
            self.select = SJSSI(self.table_s_select, self.table_r, epsilon=epsilon)
        else:
            self.band = HotspotBandJoinProcessor(
                self.table_s_band, self.table_r, alpha=alpha, epsilon=epsilon
            )
            self.select = HotspotSelectJoinProcessor(
                self.table_s_select, self.table_r, alpha=alpha, epsilon=epsilon
            )
            if metrics is not None:
                listener = HotspotMetricsListener(metrics)
                self.band.tracker.add_listener(listener)
                self.select.tracker.add_listener(listener)
                self.telemetry = HotspotTelemetry(metrics, tracer)
                self.telemetry.attach(self.band.tracker, f"shard/{index}/band")
                self.telemetry.attach(self.select.tracker, f"shard/{index}/select")

    # -- subscriptions -------------------------------------------------------

    def subscribe(self, query: Any) -> None:
        if isinstance(query, BandJoinQuery):
            self.band.add_query(query)
        else:
            self.select.add_query(query)

    def unsubscribe(self, query: Any) -> None:
        if isinstance(query, BandJoinQuery):
            self.band.remove_query(query)
        else:
            self.select.remove_query(query)

    @property
    def query_count(self) -> int:
        return self.band.query_count + self.select.query_count

    def sample_telemetry(self) -> List[HeadroomSample]:
        """Refresh this shard's headroom gauges (both planes) and return
        the samples; ``[]`` when telemetry is not attached.  Full tau
        sweep per plane — reporting-interval cost, not per-event.  The
        shm worker calls this before shipping a telemetry frame so the
        parent merges current headroom, not last-batch headroom."""
        return self.telemetry.sample() if self.telemetry is not None else []

    # -- event application ---------------------------------------------------

    def apply(self, event: DataEvent) -> None:
        """This shard's part of an S delete it owns (the event's
        select-plane shard, :meth:`ShardRouter.route_event`, is this one):
        drop the row from its C-slice.  The shared tables are the group's
        to write; insertions come through :meth:`apply_batch`."""
        self.table_s_select.delete(event.row)

    def apply_batch(
        self, entries: Sequence[ShardEntry], rows: Sequence[Any]
    ) -> List[Tuple[int, Delta]]:
        """This shard's part of one run of same-relation INSERT entries
        ``(seq, event, owner)`` — ``rows`` are their rows, extracted once
        by the group for all shards: probe them against the shared tables
        through the operators' batch fast path and keep the shard's own
        C-slice, returning per-event deltas tagged with their sequence
        numbers.

        An R-arrival probe reads only S-side state and vice versa, and the
        group installs the run's rows only after every shard has probed
        it, so each row sees exactly the table state the per-event path
        would have shown it.  The select plane is probed only for the S
        rows this shard owns (rows of its C-slice).
        """
        relation = entries[0][1].relation
        index = self.index
        with self.tracer.span(
            "fastpath.run", shard=index, relation=relation, rows=len(rows)
        ):
            # Both planes answer with a fresh dict per row and a query
            # lives on one plane, so the select part folds into the band's.
            if relation == "R":
                parts = self.band.process_r_batch(rows)
                for deltas, select_d in zip(parts, self.select.process_r_batch(rows)):
                    deltas.update(select_d)
            else:
                parts = self.band.process_s_batch(rows)
                mine = [k for k, entry in enumerate(entries) if entry[2] == index]
                if mine:
                    own_rows = [rows[k] for k in mine]
                    for k, select_d in zip(mine, self.select.process_s_batch(own_rows)):
                        parts[k].update(select_d)
                    for row in own_rows:
                        self.table_s_select.insert(row)
            return [(entry[0], deltas) for entry, deltas in zip(entries, parts)]


class ShardGroup:
    """The one table set of a process and the shards that read it.

    R and (band-plane) S are held **once**: every shard's processors probe
    the same ``table_r``/``table_s`` and this class is their only writer.
    ``mode="inline"`` builds one group over all K shards; a
    ``process-shm`` worker builds the same group over its one shard.
    """

    def __init__(
        self,
        indices: Sequence[int],
        *,
        alpha: Optional[float] = 0.01,
        epsilon: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.tracer = tracer
        self.table_r = TableR()
        self.table_s = TableS()
        self.shards = [
            Shard(index, self.table_r, self.table_s, alpha=alpha, epsilon=epsilon,
                  metrics=metrics, tracer=tracer)
            for index in indices
        ]
        self._by_index = {shard.index: shard for shard in self.shards}

    def apply_batch(self, entries: Sequence[ShardEntry]) -> ShardBatchResults:
        """Apply one batch of ``(seq, event, owner)`` entries and return
        per shard its probe seconds and the ``(seq, deltas)`` of the
        insertions, in order.

        Every data event reaches every shard, so there is one entry list
        and it is segmented **once**: maximal runs of consecutive
        same-relation INSERTs, with deletes and relation switches as
        boundaries.  Run by run, every shard probes the run against the
        still-unchanged tables (:meth:`Shard.apply_batch`, a run of one
        included), then the run's rows are installed a single time — so
        run k+1 sees run k exactly as per-event application would.  A
        delete touches the shared table and, for an S row, the C-slice of
        its owner if that shard is here.
        """
        shards = self.shards
        seconds = [0.0] * len(shards)
        results: List[List[Tuple[int, Delta]]] = [[] for _ in shards]
        span = self.tracer.span
        clock = time.perf_counter
        n = len(entries)
        i = 0
        while i < n:
            __, event, owner = entries[i]
            if event.kind is not EventKind.INSERT:
                if event.relation == "R":
                    self.table_r.delete(event.row)
                else:
                    self.table_s.delete(event.row)
                    shard = self._by_index.get(owner)
                    if shard is not None:
                        shard.apply(event)
                i += 1
                continue
            relation = event.relation
            j = i + 1
            while j < n:
                nxt = entries[j][1]
                if nxt.kind is not EventKind.INSERT or nxt.relation != relation:
                    break
                j += 1
            run = entries[i:j]
            rows = [entry[1].row for entry in run]
            for k, shard in enumerate(shards):
                with span("shard.apply", shard=shard.index, events=j - i):
                    start = clock()
                    results[k].extend(shard.apply_batch(run, rows))
                    seconds[k] += clock() - start
            install = self.table_r.insert if relation == "R" else self.table_s.insert
            for row in rows:
                install(row)
            i = j
        return {
            shard.index: (seconds[k], results[k]) for k, shard in enumerate(shards)
        }


_S_ROW_ORDER = attrgetter("b", "c", "sid")
_R_ROW_ORDER = attrgetter("b", "a", "rid")


def merge_deltas(parts: Sequence[Delta]) -> Delta:
    """Merge per-shard delta dicts into one, deterministically.

    Partial match lists for the same query (a select-join spanning several
    C-slices) are concatenated and sorted by row coordinates, so the merged
    result is independent of shard evaluation order.  One event's matches
    are all rows of the *other* relation, so the order is chosen per list.
    """
    merged: Delta = {}
    for part in parts:
        for query, rows in part.items():
            if not rows:
                continue
            if query in merged:
                merged[query].extend(rows)
            else:
                merged[query] = list(rows)
    for rows in merged.values():
        if len(rows) > 1:
            rows.sort(
                key=_S_ROW_ORDER if isinstance(rows[0], STuple) else _R_ROW_ORDER
            )
    return merged
