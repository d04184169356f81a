"""Domain sharding for the continuous-query runtime.

The runtime splits the **subscriptions** across shards, one per process;
the base relations are not split, and not copied either: a process holds
one ``TableR`` and one ``TableS`` (:class:`ShardGroup`), written once per
data event, and its shard's processors probe those same two objects.  A
shard is a partition of the queries — the paper's hotspot groups are the
heavy side, so they are what gets partitioned.  Queries are placed on two
*planes*, one per query template, because the two templates constrain
different attributes:

* **select plane** — :class:`~repro.engine.queries.SelectJoinQuery`
  subscriptions are routed by their ``rangeC`` selection over the value
  domain, to *every* C-slice their range overlaps.  With one shard the
  plane is whole and reads the shared S table, whose ``cols_bc`` its
  S-side arrivals are answered from through the hot groups
  (:meth:`~repro.operators.hotspot_processor.HotspotSelectJoinProcessor.process_s_batch`).
  Under ``process-shm`` each shard also keeps a C-slice of S
  (``table_s_select``: an S row lives in exactly one slice) for its
  select processor, so an incoming S-tuple probes the select queries of
  a **single** process.  An incoming R-tuple probes every slice, and
  because the slices are disjoint, the per-shard deltas for a query
  spanning several slices are disjoint partial results whose union
  equals the unsharded delta.  A table builds an index on its first
  read, so each S table ends up with the indexes its planes probe.

* **band plane** — :class:`~repro.engine.queries.BandJoinQuery`
  subscriptions live on exactly one shard, the partition of the
  difference domain (``S.B - R.B``) holding their band midpoint.  A band
  match depends on the difference of two join keys, so no
  single-attribute partition of the base tables can localize it: a band
  plane probes the full shared tables for every data event.

There is one shard per process — one inline, K under ``process-shm`` —
because within one process a plane probes the same shared tables
whatever its share of the queries: splitting it among shards would leave
the groups probed per event (τ) unchanged and multiply only the fixed
cost of a kernel call.  A shard skips a plane that holds no query
(:meth:`Shard.apply_batch`), and the group skips its shard when that
holds none.

A batch has **one view**: every data event reaches every shard, so routing
an event is one integer — :meth:`ShardRouter.route_event` names the
select-plane *owner* of an S row (-1 for an R row) — and a batch is one
list of ``(seq, event, owner)`` entries (:data:`ShardEntry`) that every
shard reads, in this process or, as one frame, in a worker.  A
subscription change is an entry of the same list, in stream order, whose
``owner`` is its query's placement; a shard takes a batch's subscribes,
and later its unsubscribes, in one call each.  The router is the only
place that knows the placement policy; a shard decides "my C-slice?" as
``owner == self.index`` and "my query?" as ``self.index in owner``.

Every routing decision is **static**: it depends only on the coordinates of
the row or query, never on the current subscription set.  That invariant is
what makes the sharded pipeline exactly equivalent to the unsharded
:class:`~repro.engine.system.ContinuousQuerySystem` — a row is stored by
the same rule that later routes its deletion, and a query subscribed
mid-stream finds all prior state already in the tables it reads.

This module is the router, the shard and the table-set owner, nothing that
drives them: :class:`~repro.runtime.pipeline.EventPipeline` is the one
owner of placements, and its backends make every
:meth:`ShardGroup.apply_batch` call — on the pipeline's own group of
shard 0 in either mode, and in each ``process-shm`` worker on its group.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.events import DataEvent, EventKind
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.table import TableR, TableS
from repro.operators.band_join import BJSSI
from repro.operators.hotspot_processor import (
    HotspotBandJoinProcessor,
    HotspotSelectJoinProcessor,
)
from repro.obs.hotspot_telemetry import HeadroomSample, HotspotTelemetry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.operators.select_join import SJSSI
from repro.runtime.metrics import MetricsRegistry

DOMAIN_LO = 0.0
DOMAIN_HI = 10_000.0

# The operator layer (repro.operators / repro.engine) is typed ``Any`` at
# the shard boundary: queries and rows flow through the runtime opaquely.
Delta = Dict[Any, List[Any]]
# One entry of a batch: (seq, event, owner).  For a DataEvent ``owner`` is
# the select-plane shard of an S row (:meth:`ShardRouter.route_event`), -1
# for an R row; for a QueryEvent it is the placement (the shard indices its
# query registers in, :meth:`ShardRouter.shards_for_query`) and seq is -1.
ShardEntry = Tuple[int, Any, Any]
# One shard's batch outcome: probe seconds plus (seq, deltas) pairs.
ShardBatch = Tuple[float, List[Tuple[int, Delta]]]
# The outcomes of a round's shards, by index: those that held a query.
ShardBatchResults = Dict[int, ShardBatch]
ResultCallback = Callable[[Any, Any, List[Any]], None]


def scaled_alpha(alpha: Optional[float], num_shards: int) -> Optional[float]:
    """Per-shard hotspot threshold of a plane split ``num_shards`` ways,
    keeping the *absolute* promotion bar constant across the fleet.

    Each shard plane's :class:`~repro.core.hotspot_tracker.HotspotTracker`
    promotes a stabbing group once it holds ``alpha * n_shard`` items.  With
    queries split ``K`` ways, an unscaled alpha would drop the absolute bar
    by ``K`` and promote up to ``K * 2/alpha`` groups fleet-wide — and every
    broadcast R-arrival would pay a group probe for each of them, erasing
    the sharding win.  Scaling to ``alpha * K`` (capped at 1) restores the
    unsharded bar ``alpha * n_total``, so the fleet-wide group count (and
    hence broadcast probe cost) matches the unsharded processor's.  Both
    planes are split over the router's shards — one inline, whose planes
    promote at ``alpha`` itself, and K under ``process-shm`` — so one
    threshold serves both.
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

    Both planes are cut into ``num_shards`` ranges, one per shard: the
    value domain ``[domain_lo, domain_hi]`` into C-slices for the select
    plane, the difference domain ``[-(width), +width]`` for the band
    plane.  With one shard (the inline pipeline) shard 0 holds every
    query.  Routing clamps out-of-domain coordinates into the edge
    shards, which affects load balance only, never correctness.
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

        Select-joins go to every C-slice their ``rangeC`` overlaps (their
        partial results partition along the S-row C-partition); band joins
        go to the single band partition containing their band midpoint
        (every shard probes the full tables, so multi-registration would
        duplicate deltas).  With one shard both are shard 0.
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
        event probes exactly one select plane — the partition owning
        ``row.c``, shard 0 when there is one shard, which is the whole
        routing decision — and is stored in its C-slice when the plane is
        sliced.
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
        """Load distribution snapshot; ``*_imbalance`` is max-shard load
        over mean-shard load (1.0 = perfectly balanced), the signal a
        rebalancer would act on by re-splitting the domain.  One shard —
        the inline pipeline's — reads 1.0."""
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
    tracker, promoting at ``alpha``, when ``alpha`` is set).  ``table_r``
    and ``table_s_band`` are the process's shared relations — the
    :class:`ShardGroup` that built this shard is their one writer.
    ``table_s_select`` is the S table the select processor reads: the
    shared one, unless the select plane is ``sliced`` into C-slices
    (``process-shm``), where it is the shard's own slice, which the group
    writes too (insertions in :meth:`ShardGroup.apply_batch`, deletions
    through :meth:`apply`).
    """

    def __init__(
        self,
        index: int,
        table_r: TableR,
        table_s_band: TableS,
        *,
        sliced: bool = False,
        alpha: Optional[float] = 0.01,
        epsilon: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.index = index
        self.tracer = tracer
        self.table_r = table_r
        self.table_s_band = table_s_band
        self.sliced = sliced
        # A slice's select plane reads its cols_bc alone.
        self.table_s_select = TableS() if sliced else table_s_band
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
                # Each plane's churn lands in shard/<index>/runtime/hotspot_*.
                self.telemetry = HotspotTelemetry(metrics, tracer)
                self.telemetry.attach(self.band.tracker, f"shard/{index}/band")
                self.telemetry.attach(self.select.tracker, f"shard/{index}/select")

    # -- subscriptions -------------------------------------------------------

    def subscribe(self, *queries: Any) -> None:
        """Register ``queries``: one ``add_query`` call per plane, so each
        plane's tracker rebalances once for all of them."""
        band, select = _by_plane(queries)
        if band:
            self.band.add_query(*band)
        if select:
            self.select.add_query(*select)

    def unsubscribe(self, *queries: Any) -> None:
        """Cancel ``queries``: one ``remove_query`` call per plane."""
        band, select = _by_plane(queries)
        if band:
            self.band.remove_query(*band)
        if select:
            self.select.remove_query(*select)

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
        select-plane shard, :meth:`ShardRouter.route_event`, is this one)
        when its select plane is sliced: drop the row from its C-slice.
        The shared tables and the C-slice insertions are the group's to
        write."""
        self.table_s_select.delete(event.row)

    def apply_batch(
        self,
        entries: Sequence[ShardEntry],
        rows: Sequence[Any],
        touched: Optional[Sequence[float]] = None,
        suspects: Optional[Dict[int, List[Any]]] = None,
    ) -> Tuple[Optional[List[Delta]], Optional[List[Delta]], Optional[List[int]]]:
        """This shard's probe of one relation's INSERT entries
        ``(seq, event, owner)`` of a batch — ``rows`` are their rows,
        extracted once by the group — through the operators' batch fast
        path.  Reads only; the group wrote the tables.  ``touched`` and
        ``suspects`` pass to the band plane: the sorted join keys of the
        other relation's touched rows, and the dict it fills with each
        (entry index, query) whose band window holds one.

        Returns each plane's per-event deltas apart, for the group to
        strike before it merges them: the band part, one delta per entry;
        the select part; and, for an S run of a sliced select plane, the
        indices into ``entries`` of the rows this shard owns (rows of its
        C-slice), the only rows its select plane probes and so the ones
        the select part answers, in order — ``None`` for an R run or a
        whole select plane, whose select part is one delta per entry too.
        A plane that holds no query is not probed, and its part is
        ``None``.

        The run is probed against **one** table state, the batch's
        superset state (every insertion of the batch installed, no
        deletion applied yet), so a hit list holds every row the event
        sees under per-event application, in that order, plus the rows
        :meth:`ShardGroup.apply_batch` then strikes.
        """
        band_live = self.band.query_count > 0
        select_live = self.select.query_count > 0
        relation = entries[0][1].relation
        index = self.index
        with self.tracer.span(
            "fastpath.run", shard=index, relation=relation, rows=len(rows)
        ):
            if relation == "R":
                return (
                    self.band.process_r_batch(rows, touched, suspects) if band_live else None,
                    self.select.process_r_batch(rows) if select_live else None,
                    None,
                )
            band = self.band.process_s_batch(rows, touched, suspects) if band_live else None
            if not select_live:
                return band, None, None
            if not self.sliced:
                return band, self.select.process_s_batch(rows), None
            owned = [k for k, entry in enumerate(entries) if entry[2] == index]
            select = self.select.process_s_batch([rows[k] for k in owned]) if owned else []
            return band, select, owned


def _by_plane(queries: Sequence[Any]) -> Tuple[List[Any], List[Any]]:
    """``queries`` split into the band plane's and the select plane's, each
    in the given order."""
    band: List[Any] = []
    select: List[Any] = []
    for query in queries:
        (band if isinstance(query, BandJoinQuery) else select).append(query)
    return band, select


_SEQ = itemgetter(0)
#: qid -> in-batch liveness interval (subscribe position, unsubscribe position).
Liveness = Dict[int, Tuple[float, float]]
_RID = attrgetter("rid")
_SID = attrgetter("sid")
#: The visibility bounds of a join key no touched row has.
_UNTOUCHED = (-1, inf)


class _Touched:
    """One relation's part of a batch segment: its INSERT entries in stream
    order (``entries`` / ``rows`` / ``positions`` are parallel), its
    deferred deletions as ``(event, owner)``, and for every row either kind
    touched its in-batch **visibility interval** ``(insert position,
    delete position)`` by row id — ``-1`` / ``inf`` for the end that lies
    outside the segment.  An arrival of the other relation at position
    ``p`` sees the row iff ``insert < p < delete``.  Rows are known by id,
    never by identity: a worker decodes a DELETE's row into a new object.

    The two summaries the row strikes read are built on first use, once
    per segment: the touched join keys when the band plane holds a query
    (its kernel reads them), the key bounds when a select delta needs them.
    """

    __slots__ = (
        "row_id", "table", "entries", "rows", "positions", "deletes", "visible",
        "_touched_bs", "_key_bounds",
    )

    def __init__(self, row_id: Callable[[Any], int], table: Any) -> None:
        self.row_id = row_id
        self.table = table  # the group's shared table of this relation
        self.entries: List[ShardEntry] = []
        self.rows: List[Any] = []
        self.positions: List[int] = []
        self.deletes: List[Tuple[DataEvent, int]] = []
        self.visible: Dict[int, Tuple[float, float]] = {}
        self._touched_bs: Optional[List[float]] = None
        self._key_bounds: Optional[Dict[float, Tuple[float, float]]] = None

    def touched_bs(self) -> List[float]:
        """The distinct join keys of the touched rows, ascending."""
        if self._touched_bs is None:
            keys = {row.b for row in self.rows}
            keys.update(event.row.b for event, __ in self.deletes)
            self._touched_bs = sorted(keys)
        return self._touched_bs

    def key_bounds(self) -> Dict[float, Tuple[float, float]]:
        """Join key -> ``(last insert position, first delete position)``
        over the touched rows with that key, ``-1`` / ``inf`` where no such
        row was inserted / deleted in the segment.  A row of key ``b`` is
        hidden at ``p`` only if it was inserted after ``p`` or deleted
        before it, so an arrival at ``p`` inside its key's bounds sees
        every row of that key the superset state holds."""
        if self._key_bounds is None:
            # Positions ascend, so the last insertion of a key wins here
            # and, walking the deletions backwards, the first deletion.
            bounds: Dict[float, Tuple[float, float]] = {
                row.b: (position, inf) for row, position in zip(self.rows, self.positions)
            }
            visible = self.visible
            row_id = self.row_id
            for event, __ in reversed(self.deletes):
                row = event.row
                inserted = bounds.get(row.b, _UNTOUCHED)[0]
                bounds[row.b] = (inserted, visible[row_id(row)][1])
            self._key_bounds = bounds
        return self._key_bounds


class _Changes:
    """A segment's subscription changes (``live``), and the same changes
    resolved to the query objects this group's shard holds
    (``ShardGroup._queries``, in a worker too): the queries subscribed in
    the segment and the queries cancelled in it, each in position order,
    built on first use.  An event at position ``p`` is answered by every
    query it was probed against except those subscribed after ``p`` or
    cancelled before it — a suffix of the one list and a prefix of the
    other, two bisects away."""

    __slots__ = ("live", "held", "_lists")

    def __init__(self, live: Liveness, held: Dict[int, Any]) -> None:
        self.live = live
        self.held = held
        self._lists: Optional[Tuple[List[float], List[Any], List[float], List[Any]]] = None

    def _build(self) -> Tuple[List[float], List[Any], List[float], List[Any]]:
        subscribed: List[Tuple[float, Any]] = []
        cancelled: List[Tuple[float, Any]] = []
        for qid, (begin, end) in self.live.items():
            query = self.held.get(qid)
            if query is None:  # not placed on this group's shard
                continue
            if begin >= 0:
                subscribed.append((begin, query))
            if end < inf:
                cancelled.append((end, query))
        subscribed.sort(key=_SEQ)
        cancelled.sort(key=_SEQ)
        return (
            [at for at, __ in subscribed], [query for __, query in subscribed],
            [at for at, __ in cancelled], [query for __, query in cancelled],
        )

    def strike(self, parts: Sequence[Delta], positions: Sequence[int]) -> int:
        """Remove from each delta of ``parts`` (one plane's answers to one
        relation's run, probed against the segment's superset of
        subscriptions; ``positions`` parallel) every query whose liveness
        interval does not contain the event's position.  An event walks
        the smaller set: a delta no larger than the segment's changes
        checks each of its entries, a larger one only the changes that
        exclude it.  Returns the number of delta entries removed."""
        live = self.live
        n_changes = len(live)
        struck = 0
        for deltas, position in zip(parts, positions):
            if not deltas:
                continue
            if len(deltas) <= n_changes:
                gone = [
                    query for query in deltas
                    if (span := live.get(query.qid)) is not None
                    and not span[0] < position < span[1]
                ]
            else:
                if self._lists is None:
                    self._lists = self._build()
                sub_at, subscribed, cancel_at, cancelled = self._lists
                excluded = (
                    *subscribed[bisect_left(sub_at, position):],
                    *cancelled[:bisect_left(cancel_at, position)],
                )
                gone = [query for query in excluded if query in deltas]
            for query in gone:
                del deltas[query]
            struck += len(gone)
        return struck


def _drop_hidden(deltas: Delta, queries: Iterable[Any], position: int, other: _Touched) -> int:
    """Remove from the hit lists of ``queries`` in ``deltas`` every row of
    the ``other`` relation an event at ``position`` could not yet, or no
    longer, see; a query whose list empties leaves the delta.  Returns the
    number of rows removed.

    Removal is all it takes: equal keys keep insertion order in the
    tables' sorted columns, and the superset state was built by the same
    insertions in the same order, so what survives is already in the order
    per-event application yields.
    """
    visible = other.visible
    row_id = other.row_id
    struck = 0
    emptied: List[Any] = []
    for query in queries:
        hits = deltas[query]
        kept = [
            row for row in hits
            if (span := visible.get(row_id(row))) is None or span[0] < position < span[1]
        ]
        if len(kept) != len(hits):
            struck += len(hits) - len(kept)
            if kept:
                deltas[query] = kept
            else:
                emptied.append(query)
    for query in emptied:
        del deltas[query]
    return struck


def _strike_band(
    parts: Sequence[Delta],
    positions: Sequence[int],
    suspects: Dict[int, List[Any]],
    other: _Touched,
) -> int:
    """The row strike of a band part (``positions`` parallel).  A band
    window is a key range, so its hit list can hold a touched row only if
    a touched key lies in the window: the kernel named those (entry
    index, query) pairs in ``suspects``, and only the ones the query
    strike left in the delta are scanned.  Returns the number of rows
    removed."""
    struck = 0
    for i, queries in suspects.items():
        deltas = parts[i]
        left = [query for query in queries if query in deltas]
        if left:
            struck += _drop_hidden(deltas, left, positions[i], other)
    return struck


def _strike_select(
    parts: Sequence[Delta], rows: Sequence[Any], positions: Sequence[int], other: _Touched
) -> int:
    """The row strike of a select part (``rows`` / ``positions`` are the
    probed rows, parallel).  Every hit of a select delta has its event's
    join key, so the event pays one lookup of that key's bounds
    (:meth:`_Touched.key_bounds`), and its lists are scanned only when a
    row of that key may be hidden at its position.  Returns the number of
    rows removed."""
    bounds = other.key_bounds()
    struck = 0
    for deltas, row, position in zip(parts, rows, positions):
        if deltas:
            lo, hi = bounds.get(row.b, _UNTOUCHED)
            if not lo < position < hi:
                struck += _drop_hidden(deltas, deltas, position, other)
    return struck


class ShardGroup:
    """The one table set of a process and the one shard that reads it.

    R and S are held **once**: the shard's processors probe the group's
    ``table_r``/``table_s`` and this class is their only writer, and the
    only writer of the shard's C-slice.  Unless ``sliced``, the select
    plane is whole and reads the shared ``table_s`` (the inline pipeline,
    and ``process-shm`` at K = 1); ``sliced``, the shard keeps the C-slice
    of S its select plane reads (a ``process-shm`` process of K ≥ 2).
    ``alpha`` is both planes' threshold (:func:`scaled_alpha`).
    """

    def __init__(
        self,
        index: int = 0,
        *,
        sliced: bool = False,
        alpha: Optional[float] = 0.01,
        epsilon: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.tracer = tracer
        self.table_r = TableR()
        self.table_s = TableS()
        self.shard = Shard(index, self.table_r, self.table_s, sliced=sliced, alpha=alpha,
                           epsilon=epsilon, metrics=metrics, tracer=tracer)
        # qid -> the query object the shard holds: an unsubscribe names its
        # query by qid alone when it crossed a process boundary.
        self._queries: Dict[int, Any] = {}
        # Hit-list rows the row strikes and delta entries the query strike
        # removed.
        self._struck = (
            (metrics.counter(f"shard/{index}/runtime/rows_struck"),
             metrics.counter(f"shard/{index}/runtime/queries_struck"))
            if metrics is not None
            else None
        )

    def apply_batch(self, entries: Sequence[ShardEntry]) -> Optional[ShardBatch]:
        """Apply one batch of ``(seq, event, owner)`` entries and return the
        shard's probe seconds and the ``(seq, deltas)`` of the insertions,
        in sequence order — ``None`` when the shard held no query in it: it
        probed nothing and recorded no span.

        A batch is two runs, whatever its interleaving — the delta rule
        Δ(R⋈S) = ΔR⋈S + R⋈ΔS + ΔR⋈ΔS, the last term in stream order — and
        its subscription changes are catch-up, not barriers:

        1. **install** every insertion, in stream order, into the shared
           tables and — an S row the shard owns — its C-slice, and every
           subscribe whose placement names the shard, as one
           :meth:`Shard.subscribe` call (one tracker call, so one
           rebalance, per plane); every deletion and every unsubscribe is
           deferred.  The group now holds a superset of the rows and of
           the subscriptions any event of the batch may see;
        2. **probe**: a shard that holds a query answers all R insertions
           as one run and all S insertions as another
           (:meth:`Shard.apply_batch`), each with the planes that hold a
           query — a plane that holds none is neither probed nor struck,
           and yields no delta;
        3. **strike**, each plane's part of a delta on its own before the
           two are merged: first every query whose liveness interval
           ``(subscribe position, unsubscribe position)`` does not contain
           the event's position (:meth:`_Changes.strike`), then from the
           hit lists the touched rows whose visibility interval does not
           (:func:`_strike_band`, :func:`_strike_select`).  What a strike
           costs follows what it can remove: an event walks the smaller of
           its delta and the subscription changes that exclude it, the
           band strike scans only the lists whose window the kernel found
           to hold a touched key (with numpy, one vector test per run),
           and a select part pays one lookup of its join key;
        4. **delete** the deferred rows, then **unsubscribe** the deferred
           queries, again in one :meth:`Shard.unsubscribe` call.

        The one boundary left is a row id deleted and then inserted again
        in one batch: its second life cannot be installed before its
        first has been deleted, so the batch is cut at that insertion and
        the segments are applied in order.  A qid never lives twice in one
        batch: the pipeline flushes before re-subscribing one whose
        unsubscribe is still pending.
        """
        seconds: Optional[float] = None
        results: List[Tuple[int, Delta]] = []
        start = 0
        while start < len(entries):
            start, elapsed = self._apply_segment(entries, start, results)
            if elapsed is not None:
                seconds = elapsed + (seconds or 0.0)
        return None if seconds is None else (seconds, results)

    def _apply_segment(
        self,
        entries: Sequence[ShardEntry],
        start: int,
        results: List[Tuple[int, Delta]],
    ) -> Tuple[int, Optional[float]]:
        """Steps 1–4 of :meth:`apply_batch` for the entries from ``start``
        up to the next cut, the answers appended to ``results``; returns
        where the segment ended and its probe seconds, ``None`` when the
        shard held no query."""
        shard = self.shard
        index = shard.index
        # Only a sliced shard keeps a C-slice: the S rows it owns.
        slice_owner = index if shard.sliced else None
        r_side = _Touched(_RID, self.table_r)
        s_side = _Touched(_SID, self.table_s)
        held = self._queries
        live: Liveness = {}
        subscribes: List[Any] = []
        cancels: List[int] = []
        insert = EventKind.INSERT
        stop = len(entries)
        for position in range(start, stop):
            entry = entries[position]
            seq, event, owner = entry
            if seq < 0:  # a subscription change; owner is its placement
                query = event.query
                qid = query.qid
                if event.kind is insert:
                    live[qid] = (position, inf)
                    if index in owner:
                        subscribes.append(query)
                        held[qid] = query
                else:
                    subscribed = live.get(qid)
                    live[qid] = (-1 if subscribed is None else subscribed[0], position)
                    cancels.append(qid)
                continue
            side = r_side if event.relation == "R" else s_side
            row = event.row
            key = side.row_id(row)
            visible = side.visible
            if event.kind is not insert:
                inserted = visible.get(key)
                visible[key] = (-1 if inserted is None else inserted[0], position)
                side.deletes.append((event, owner))
                continue
            if key in visible:
                stop = position  # deleted above: the second life starts a segment
                break
            visible[key] = (position, inf)
            side.entries.append(entry)
            side.rows.append(row)
            side.positions.append(position)
            side.table.insert(row)
            if owner == slice_owner:  # an S row of the shard's C-slice
                shard.table_s_select.insert(row)
        if subscribes:
            shard.subscribe(*subscribes)
        elapsed: Optional[float] = None
        if shard.query_count:
            elapsed = 0.0
            runs = [
                (side, other)
                for side, other in ((r_side, s_side), (s_side, r_side))
                if side.rows
            ]
            if runs:
                elapsed = self._probe(runs, _Changes(live, held) if live else None,
                                      stop - start, results)
        for side in (r_side, s_side):
            for event, owner in side.deletes:
                side.table.delete(event.row)
                if owner == slice_owner:  # an S row of the shard's C-slice
                    shard.apply(event)
        unsubscribes = [query for qid in cancels if (query := held.pop(qid, None)) is not None]
        if unsubscribes:  # the cancelled queries the shard held
            shard.unsubscribe(*unsubscribes)
        return stop, elapsed

    def _probe(
        self,
        runs: Sequence[Tuple[_Touched, _Touched]],
        changes: Optional[_Changes],
        events: int,
        results: List[Tuple[int, Delta]],
    ) -> float:
        """Steps 2–3 of :meth:`apply_batch`: probe and strike each run of a
        segment of ``events`` entries, the answers appended to ``results``
        in stream order; returns the seconds it took."""
        shard = self.shard
        clock = time.perf_counter
        with self.tracer.span("shard.apply", shard=shard.index, events=events):
            begin = clock()
            answered: List[Tuple[int, Delta]] = []
            rows_struck = queries_struck = 0
            # Only a band plane that holds a query reads the touched keys.
            band_live = shard.band.query_count > 0
            for side, other in runs:
                touched = other.touched_bs() if band_live and other.visible else None
                suspects: Dict[int, List[Any]] = {}
                band, select, owned = shard.apply_batch(side.entries, side.rows, touched, suspects)
                run_entries, positions = side.entries, side.positions
                if band is not None:
                    if changes is not None:
                        queries_struck += changes.strike(band, positions)
                    if suspects:
                        rows_struck += _strike_band(band, positions, suspects, other)
                    answered.extend(zip(map(_SEQ, run_entries), band))
                if select is not None:
                    if owned is None:
                        select_rows, select_positions = side.rows, positions
                    else:
                        select_rows = [side.rows[i] for i in owned]
                        select_positions = [positions[i] for i in owned]
                    if changes is not None:
                        queries_struck += changes.strike(select, select_positions)
                    if other.visible and any(select):
                        rows_struck += _strike_select(
                            select, select_rows, select_positions, other
                        )
                    if band is None:
                        select_entries = (
                            run_entries if owned is None else [run_entries[i] for i in owned]
                        )
                        answered.extend(zip(map(_SEQ, select_entries), select))
                    else:
                        # Both planes answer with a fresh dict per row and
                        # a query lives on one plane: the select part
                        # folds into the band's.
                        select_band = band if owned is None else [band[i] for i in owned]
                        for deltas, part in zip(select_band, select):
                            deltas.update(part)
            if len(runs) == 2:
                answered.sort(key=_SEQ)  # back to stream order
            results.extend(answered)
            if self._struck is not None:
                rows, queries = self._struck
                if rows_struck:
                    rows.inc(rows_struck)
                if queries_struck:
                    queries.inc(queries_struck)
            return clock() - begin


def merge_deltas(parts: Sequence[Delta]) -> Delta:
    """One event's delta from the parts of the shards that answered it, in
    shard-index order.  One part passes through uncopied.  Several (a
    select-join spanning C-slices) are concatenated: a query answered once
    keeps its list, a shared one gets a new list of its parts in index
    order.  The slices partition C in ascending index order, so every list
    equals the per-event reference's, order included; nothing sorts.
    """
    if len(parts) == 1:
        return parts[0]
    merged = dict(parts[0])
    for part in parts[1:]:
        shared = {query: merged[query] + part[query] for query in merged.keys() & part.keys()}
        merged.update(part)
        merged.update(shared)
    return merged
