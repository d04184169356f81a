"""Seeded generator for the benchmark's five workloads.

Bench-owned on purpose: it imports only the engine's row, query, event and
``Interval`` types plus ``WorkloadParams``/``ZipfSampler``, so a later PR
that deletes a stream helper elsewhere cannot change these inputs.  The
same ``(name, seed, n_events)`` always yields the same workload.

Every workload has the same three parts:

* ``population`` -- the initial subscriptions, submitted as ``QueryEvent``
  inserts (through ``submit`` so a WAL sees them);
* ``preload`` -- R and S inserts that give the probes real state to hit;
* ``stream`` -- the measured elements.  Inserts arrive in same-relation runs
  of ``RUN_LENGTH`` (the shard fast path batches such runs), deletes and
  query events cut the runs.

Query clusters are laid out deterministically (stratified anchors in a fixed
rank order, Zipf sizes by apportionment) so different seeds give
statistically alike workloads; the seed moves the anchors' jitter, every
row and every choice in the stream.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.intervals import Interval
from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.table import RTuple, STuple
from repro.workload.params import WorkloadParams
from repro.workload.zipf import ZipfSampler

_PARAMS = WorkloadParams()
LO = _PARAMS.domain_lo
HI = _PARAMS.domain_hi
WIDTH = _PARAMS.domain_width

#: Same-relation insert run length (Fig 10(i) arrival pattern in the ISSUE).
RUN_LENGTH = 8
#: A delete never targets a row younger than this many data events unless
#: the workload asks for ``recent_delete_share``; with batch size 64 that
#: keeps a delete from ever being co-pending with its insert.
MIN_DELETE_AGE = 256
#: "Recent" deletes pick among the last this-many inserts, which makes them
#: co-pending with their insert most of the time (exercises coalescing).
RECENT_WINDOW = 16


@dataclass(frozen=True)
class BandShape:
    """Band-join population: ``count`` bands in ``anchors`` Zipf clusters
    over the difference domain, each band containing its anchor."""

    count: int
    anchors: int
    half_width: float


@dataclass(frozen=True)
class SelectShape:
    """Select-join population: ``clustered_share`` of the ``rangeC`` on
    ``anchors`` Zipf anchors, the rest scattered uniformly."""

    count: int
    anchors: int
    clustered_share: float
    c_half_width: float
    scattered_c_len: float
    a_len: float


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    mode: str
    num_shards: int
    batch_size: int
    alpha: Optional[float]
    durable: bool
    band: Optional[BandShape]
    select: Optional[SelectShape]
    preload_rows: int  # per relation
    real_keys: bool  # real-valued join keys; False snaps to ``key_grid``
    key_grid: int
    delete_share: float
    #: Hold the tables at the preload size: the chance of a delete is
    #: ``delete_share`` scaled by live rows over preloaded rows, so it is
    #: ``delete_share`` (which must be 0.5) at that size and pulls back to it.
    steady_rows: bool
    recent_delete_share: float  # of the deletes
    query_event_share: float
    #: Back-to-back set-ups in one ``setup_s`` sample, sized so a sample
    #: lasts a fifth of a second or more.
    setups_per_sample: int
    #: Stream elements per second of ``--seconds`` at scale 1: the measured
    #: seed rate on the reference host, so a pass measures for about
    #: ``--seconds`` seconds there while the event count stays fixed.
    events_per_second: int


# Few, narrow, select-only queries and small tables on purpose: the ingest
# pair measures what an event costs before any probe -- transport in one,
# the WAL in the other.  Even 8 band queries put the band fast path's
# O(table) snapshot on every insert run and the workers' share rose from 39%
# to 52% of the parent's wall.  Half the data events delete (``steady_rows``):
# with the issue's 30% the tables grew by 40% of the stream, the workers'
# B+-tree upkeep with them, and transport fell from 43% to 34% of the
# parent's wall within one pass.  With 32 queries over 1k+1k rows transport
# read 37-42% from one traced pass to the next (the workers' share swings
# with how the host schedules them); 8 over 250+250 keeps it at 41-46%.
_INGEST_SELECT = SelectShape(
    count=8, anchors=3, clustered_share=0.75, c_half_width=60.0,
    scattered_c_len=80.0, a_len=600.0,
)

SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="band_probe",
            why="Fig 10(i): 2k bands in 60 Zipf groups over 8k+8k real-keyed rows, pure BJ-SSI; fastpath "
            "group probing plus its B+-tree snapshots is ~70% of wall, transport/WAL/tracker do nothing.",
            mode="inline", num_shards=4, batch_size=64, alpha=None, durable=False,
            band=BandShape(count=2048, anchors=60, half_width=0.02),
            select=None,
            preload_rows=8000, real_keys=True, key_grid=0,
            delete_share=0.10, steady_rows=False, recent_delete_share=0.0, query_event_share=0.0,
            setups_per_sample=1, events_per_second=1600,
        ),
        WorkloadSpec(
            name="select_hotspot",
            why="Fig 7/9: 4k select-joins, 80% of rangeC on 20 Zipf anchors, 20% scattered; operators lead "
            "(~41%), split between hotspot-group probes and the traditional scan of the remainder.",
            mode="inline", num_shards=4, batch_size=64, alpha=0.004, durable=False,
            band=None,
            select=SelectShape(
                count=4096, anchors=20, clustered_share=0.8, c_half_width=40.0,
                scattered_c_len=30.0, a_len=800.0,
            ),
            preload_rows=6000, real_keys=False, key_grid=200,
            delete_share=0.20, steady_rows=False, recent_delete_share=0.0, query_event_share=0.01,
            setups_per_sample=1, events_per_second=3000,
        ),
        WorkloadSpec(
            name="query_churn",
            why="Fig 11: 90% subscribe/unsubscribe at a steady mixed population, 10% data; index "
            "writes (tracker, partition, add/remove_query) are >50% of wall and batches collapse to ~1.",
            mode="inline", num_shards=4, batch_size=64, alpha=0.004, durable=False,
            # One band in ten: an S arrival scans every band query of every
            # shard, and with more of them the 10% data events outweigh the
            # index writes this workload exists to measure.
            band=BandShape(count=200, anchors=10, half_width=0.5),
            select=SelectShape(
                count=1800, anchors=40, clustered_share=0.8, c_half_width=40.0,
                scattered_c_len=30.0, a_len=600.0,
            ),
            # Half the data events delete, so the small tables stay that small.
            preload_rows=500, real_keys=False, key_grid=200,
            delete_share=0.50, steady_rows=True, recent_delete_share=0.0, query_event_share=0.90,
            setups_per_sample=2, events_per_second=13000,
        ),
        WorkloadSpec(
            name="shm_ingest",
            why="process-shm, 2 workers, 8 select-joins, 250+250 rows held steady by 50% deletes: transport "
            "(encode, ring, wake-up, decode) is the largest layer, ~43% of the parent's wall; probe work is small.",
            mode="process-shm", num_shards=2, batch_size=64, alpha=0.01, durable=False,
            band=None, select=_INGEST_SELECT,
            preload_rows=250, real_keys=False, key_grid=100,
            delete_share=0.50, steady_rows=True, recent_delete_share=0.25, query_event_share=0.0,
            setups_per_sample=8, events_per_second=22000,
        ),
        WorkloadSpec(
            name="durable_ingest",
            why="The shm_ingest stream, inline with a WAL (fsync=batch) and ~3 checkpoints: the only workload "
            "with durability cost (~30% of wall); against shm_ingest it separates WAL from transport.",
            mode="inline", num_shards=2, batch_size=64, alpha=0.01, durable=True,
            band=None, select=_INGEST_SELECT,
            preload_rows=250, real_keys=False, key_grid=100,
            delete_share=0.50, steady_rows=True, recent_delete_share=0.25, query_event_share=0.0,
            setups_per_sample=16, events_per_second=22000,
        ),
    )
}

#: Workloads that must see byte-identical inputs share a generator name.
_STREAM_OF = {"durable_ingest": "shm_ingest"}


@dataclass
class Workload:
    spec: WorkloadSpec
    seed: int
    population: List[QueryEvent]
    preload: List[DataEvent]
    stream: List[object]
    #: State a correct run must end in (after ``stream``).
    final_subscriptions: int
    final_rows_r: int
    final_rows_s: int

    @property
    def setup_elements(self) -> int:
        return len(self.population) + len(self.preload)


def stream_length(spec: WorkloadSpec, seconds: float, scale: float) -> int:
    """The fixed element count a pass of ``seconds`` measures (plus one
    untimed warm-up batch, which the caller takes off the front)."""
    return max(4 * spec.batch_size, int(spec.events_per_second * seconds * scale))


def _apportion(total: int, weights: List[float]) -> List[int]:
    """Largest-remainder split of ``total`` by ``weights`` (sums exactly)."""
    norm = sum(weights)
    exact = [total * w / norm for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _anchors(rng: random.Random, count: int, lo: float, hi: float) -> List[float]:
    """``count`` anchors, one per equal stratum of ``[lo, hi]`` with jitter
    in the stratum's middle half (clusters never touch).  Zipf rank ``k``
    gets stratum ``middle + k * stride mod count`` with a golden-ratio stride,
    so the large clusters lie in the same strata for every seed: where they
    lie decides how many rows a band can match and which shard owns them,
    which a shuffled order would let vary from seed to seed.
    """
    step = (hi - lo) / count
    stride = next(s for s in range(round(count * 0.618), count + 1) if math.gcd(s, count) == 1)
    return [
        lo + ((count // 2 + rank * stride) % count + rng.uniform(0.25, 0.75)) * step
        for rank in range(count)
    ]


class _QueryFactory:
    """Draws band and select queries from a spec's cluster layout."""

    def __init__(self, spec: WorkloadSpec, rng: random.Random):
        self.rng = rng
        self.band = spec.band
        self.select = spec.select
        self.next_qid = 0
        band_count = self.band.count if self.band else 0
        select_count = self.select.count if self.select else 0
        self.band_share = band_count / (band_count + select_count)
        if self.band is not None:
            # Band anchors span most of the difference domain so every band
            # shard owns some groups.
            self.band_anchors = _anchors(rng, self.band.anchors, -0.8 * WIDTH, 0.8 * WIDTH)
            self.band_zipf = ZipfSampler(self.band.anchors, 1.0)
        if self.select is not None:
            self.select_anchors = _anchors(rng, self.select.anchors, LO, HI)
            self.select_zipf = ZipfSampler(self.select.anchors, 1.0)

    def _qid(self) -> int:
        qid = self.next_qid
        self.next_qid += 1
        return qid

    def band_query(self, cluster: int) -> BandJoinQuery:
        assert self.band is not None
        rng = self.rng
        anchor = self.band_anchors[cluster]
        w = self.band.half_width
        return BandJoinQuery(
            Interval(anchor - rng.uniform(0.0, w), anchor + rng.uniform(0.0, w)), qid=self._qid()
        )

    def select_query(self, cluster: Optional[int]) -> SelectJoinQuery:
        """``cluster=None`` draws a scattered rangeC."""
        shape = self.select
        assert shape is not None
        rng = self.rng
        if cluster is None:
            mid = rng.uniform(LO, HI)
            half = max(1.0, rng.gauss(shape.scattered_c_len, shape.scattered_c_len / 4)) / 2
            range_c = Interval(mid - half, mid + half)
        else:
            anchor = self.select_anchors[cluster]
            w = shape.c_half_width
            range_c = Interval(anchor - rng.uniform(0.0, w), anchor + rng.uniform(0.0, w))
        a_mid = min(HI, max(LO, rng.gauss((LO + HI) / 2, WIDTH / 5)))
        a_half = max(1.0, rng.gauss(shape.a_len, shape.a_len / 4)) / 2
        return SelectJoinQuery(Interval(a_mid - a_half, a_mid + a_half), range_c, qid=self._qid())

    def initial_population(self) -> List[Any]:
        """Cluster sizes by exact Zipf apportionment, then shuffled."""
        queries: List[Any] = []
        if self.band is not None:
            weights = [(k + 1) ** -1.0 for k in range(self.band.anchors)]
            for cluster, n in enumerate(_apportion(self.band.count, weights)):
                queries.extend(self.band_query(cluster) for _ in range(n))
        if self.select is not None:
            clustered = int(self.select.count * self.select.clustered_share)
            weights = [(k + 1) ** -1.0 for k in range(self.select.anchors)]
            for cluster, n in enumerate(_apportion(clustered, weights)):
                queries.extend(self.select_query(cluster) for _ in range(n))
            queries.extend(
                self.select_query(None) for _ in range(self.select.count - clustered)
            )
        self.rng.shuffle(queries)
        return queries

    def churn_query(self) -> Any:
        """A replacement query from the same distribution (Zipf-sampled)."""
        rng = self.rng
        if rng.random() < self.band_share:
            return self.band_query(self.band_zipf.sample(rng))
        assert self.select is not None
        if rng.random() < self.select.clustered_share:
            return self.select_query(self.select_zipf.sample(rng))
        return self.select_query(None)


class _Rows:
    """Row factory plus the live-row bookkeeping deletes draw from."""

    def __init__(self, spec: WorkloadSpec, rng: random.Random):
        self.rng = rng
        self.real_keys = spec.real_keys
        self.grid_step = WIDTH / spec.key_grid if spec.key_grid else 0.0
        self.grid = spec.key_grid
        self.next_id = {"R": 0, "S": 0}
        # Rows old enough to delete, and (position, row) still too young.
        self.old: Dict[str, List[Any]] = {"R": [], "S": []}
        self.young: Dict[str, Deque[Tuple[int, Any]]] = {"R": deque(), "S": deque()}
        self.position = 0  # data events emitted so far

    def _key(self) -> float:
        if self.real_keys:
            return self.rng.uniform(LO, HI)
        return LO + self.rng.randrange(self.grid) * self.grid_step

    def insert(self, relation: str) -> DataEvent:
        rng = self.rng
        ident = self.next_id[relation]
        self.next_id[relation] = ident + 1
        if relation == "R":
            row: Any = RTuple(ident, rng.uniform(LO, HI), self._key())
        else:
            row = STuple(ident, self._key(), rng.uniform(LO, HI))
        self.young[relation].append((self.position, row))
        self.position += 1
        return DataEvent(EventKind.INSERT, relation, row)

    def _age(self, relation: str) -> None:
        young = self.young[relation]
        old = self.old[relation]
        limit = self.position - MIN_DELETE_AGE
        while young and young[0][0] <= limit:
            old.append(young.popleft()[1])

    def delete(self, relation: str, recent: bool) -> Optional[DataEvent]:
        """Delete a random old row, or (``recent``) one of the newest."""
        self._age(relation)
        rng = self.rng
        if recent:
            young = self.young[relation]
            if not young:
                return None
            index = len(young) - 1 - rng.randrange(min(RECENT_WINDOW, len(young)))
            row = young[index][1]
            del young[index]
        else:
            old = self.old[relation]
            if not old:
                return None
            index = rng.randrange(len(old))
            old[index], old[-1] = old[-1], old[index]
            row = old.pop()
        self.position += 1
        return DataEvent(EventKind.DELETE, relation, row)

    def live(self, relation: str) -> int:
        return len(self.old[relation]) + len(self.young[relation])


def generate(name: str, seed: int, n_stream: int) -> Workload:
    """Build workload ``name`` with ``n_stream`` measured elements."""
    spec = SPECS[name]
    # The name feeds the seed so two workloads never share a stream by
    # accident -- except the pair that must (see _STREAM_OF).
    rng = random.Random(f"{_STREAM_OF.get(name, name)}:{seed}")
    factory = _QueryFactory(spec, rng)
    rows = _Rows(spec, rng)

    live_queries = factory.initial_population()
    population = [QueryEvent(EventKind.INSERT, query) for query in live_queries]

    preload: List[DataEvent] = []
    for i in range(2 * spec.preload_rows):
        preload.append(rows.insert("R" if (i // RUN_LENGTH) % 2 == 0 else "S"))

    stream: List[object] = []
    relation = "R"
    run_left = RUN_LENGTH
    subscribe_next = False  # churn alternates unsubscribe / subscribe
    while len(stream) < n_stream:
        roll = rng.random()
        if roll < spec.query_event_share:
            if subscribe_next or not live_queries:
                query = factory.churn_query()
                live_queries.append(query)
                stream.append(QueryEvent(EventKind.INSERT, query))
            else:
                index = rng.randrange(len(live_queries))
                live_queries[index], live_queries[-1] = live_queries[-1], live_queries[index]
                stream.append(QueryEvent(EventKind.DELETE, live_queries.pop()))
            subscribe_next = not subscribe_next
            continue
        delete_chance = spec.delete_share
        if spec.steady_rows:
            delete_chance *= (rows.live("R") + rows.live("S")) / (2 * spec.preload_rows)
        if rng.random() < delete_chance:
            victim_relation = "R" if rng.random() < 0.5 else "S"
            event = rows.delete(victim_relation, rng.random() < spec.recent_delete_share)
            if event is not None:
                stream.append(event)
                continue
        stream.append(rows.insert(relation))
        run_left -= 1
        if not run_left:
            relation = "S" if relation == "R" else "R"
            run_left = RUN_LENGTH

    return Workload(
        spec=spec,
        seed=seed,
        population=population,
        preload=preload,
        stream=stream,
        final_subscriptions=len(live_queries),
        final_rows_r=rows.live("R"),
        final_rows_s=rows.live("S"),
    )
