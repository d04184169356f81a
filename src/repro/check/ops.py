"""Seeded generation of randomized operation sequences for the fuzzer.

An :class:`Op` is a small, JSON-serializable record of one mutation in one
of two domains:

* the **interval domain** — insert/delete intervals, change epsilon/alpha —
  drives the stabbing-partition maintainers and the hotspot tracker;
* the **engine domain** — insert/delete R and S rows, subscribe/unsubscribe
  band and select-join queries — drives the sharded pipeline and the
  unsharded reference.

:func:`generate_ops` produces a deterministic sequence per seed, reusing
the :mod:`repro.workload` generators (Table 1 distributions, anchored
clustering, Zipf popularity) so fuzzed inputs look like the paper's
workloads rather than uniform noise.  Churn (deletions targeting recently
inserted items) and live-set caps keep sequences in the regime where the
dynamic maintainers actually reconstruct and a batch often holds a row's
insert and its delete.

Every generated sequence is *well-formed*: ids are never reused, deletes
only target live ids, unsubscribes only live subscriptions.  The shrinker
preserves well-formedness via :func:`repro.check.runner.normalize_ops`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Sequence, Tuple

from repro.workload.generator import (
    clustered_intervals,
    make_band_join_queries,
    make_select_join_queries,
    spread_anchors,
)
from repro.workload.params import WorkloadParams
from repro.workload.zipf import ZipfSampler

# -- op kinds ----------------------------------------------------------------

INSERT_INTERVAL = "insert_interval"
DELETE_INTERVAL = "delete_interval"
SET_EPSILON = "set_epsilon"
SET_ALPHA = "set_alpha"
INSERT_R = "insert_r"
DELETE_R = "delete_r"
INSERT_S = "insert_s"
DELETE_S = "delete_s"
SUB_BAND = "sub_band"
SUB_SELECT = "sub_select"
UNSUB = "unsub"

INTERVAL_KINDS = frozenset({INSERT_INTERVAL, DELETE_INTERVAL, SET_EPSILON, SET_ALPHA})
ENGINE_KINDS = frozenset(
    {INSERT_R, DELETE_R, INSERT_S, DELETE_S, SUB_BAND, SUB_SELECT, UNSUB}
)
ALL_KINDS = INTERVAL_KINDS | ENGINE_KINDS


@dataclass(frozen=True)
class Op:
    """One fuzz operation.

    ``key`` identifies the item the op refers to (interval id, row id, or
    query id, each in its own namespace); ``values`` carries the numeric
    payload per kind:

    ==================  =========================================
    insert_interval     (lo, hi)
    delete_interval     ()
    set_epsilon         (epsilon,)
    set_alpha           (alpha,)
    insert_r            (a, b)
    delete_r            ()
    insert_s            (b, c)
    delete_s            ()
    sub_band            (band_lo, band_hi)
    sub_select          (a_lo, a_hi, c_lo, c_hi)
    unsub               ()
    ==================  =========================================
    """

    kind: str
    key: int = 0
    values: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "key": self.key, "values": list(self.values)}

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "Op":
        return Op(data["kind"], int(data.get("key", 0)),
                  tuple(float(v) for v in data.get("values", ())))


def ops_to_json(ops: Sequence[Op]) -> str:
    return json.dumps([op.to_json() for op in ops], indent=None)


def ops_from_json(text: str) -> List[Op]:
    return [Op.from_json(entry) for entry in json.loads(text)]


# -- generation --------------------------------------------------------------


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for :func:`generate_ops` (all deterministic per seed).

    The live-set caps bound the cost of the O(n^2) oracles; once a live set
    reaches its cap, the generator forces deletions until it shrinks.
    ``churn`` is the fraction of deletions that target a recently inserted
    item (within ``recent_window`` ops of the same domain) — the knob that
    exercises partition reconstruction under turnover and puts a row's
    insert and delete into one pipeline batch.
    """

    seed: int = 0
    n_ops: int = 1000
    engine_fraction: float = 0.45
    delete_fraction: float = 0.35
    churn: float = 0.3
    recent_window: int = 12
    query_fraction: float = 0.08
    param_change_fraction: float = 0.01
    zipf_beta: float = 1.0
    n_anchors: int = 8
    uniform_interval_fraction: float = 0.2
    max_live_intervals: int = 300
    max_live_rows: int = 120
    max_live_queries: int = 40
    epsilon_choices: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    alpha_choices: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.5)
    join_key_grid: int = 50
    band_len_mean: float = 500.0

    def with_ops(self, n_ops: int) -> "FuzzConfig":
        return replace(self, n_ops=n_ops)


@dataclass
class _LiveSet:
    """Ids live in one namespace, with insertion positions for churn."""

    entries: List[Tuple[int, int]] = field(default_factory=list)  # (pos, id)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, position: int, key: int) -> None:
        self.entries.append((position, key))

    def pick_victim(self, rng: random.Random, position: int,
                    churn: float, window: int) -> int | None:
        if not self.entries:
            return None
        if rng.random() < churn:
            eligible = [i for i, (at, __) in enumerate(self.entries)
                        if position - at <= window]
        else:
            eligible = list(range(len(self.entries)))
        if not eligible:
            eligible = list(range(len(self.entries)))
        index = eligible[rng.randrange(len(eligible))]
        self.entries[index], self.entries[-1] = self.entries[-1], self.entries[index]
        return self.entries.pop()[1]


def generate_ops(config: FuzzConfig) -> List[Op]:
    """A deterministic well-formed op sequence per the config."""
    rng = random.Random(config.seed)
    params = WorkloadParams(
        seed=config.seed,
        join_key_grid=config.join_key_grid,
        band_len_mean=config.band_len_mean,
    )
    anchors = spread_anchors(params, config.n_anchors)
    sampler = ZipfSampler(config.n_anchors, config.zipf_beta)

    ops: List[Op] = []
    next_id: Dict[str, int] = {"interval": 0, "r": 0, "s": 0, "query": 0}
    live_intervals = _LiveSet()
    live_r = _LiveSet()
    live_s = _LiveSet()
    live_queries = _LiveSet()

    def fresh(namespace: str) -> int:
        key = next_id[namespace]
        next_id[namespace] = key + 1
        return key

    def interval_values() -> Tuple[float, float]:
        if rng.random() < config.uniform_interval_fraction:
            lo = rng.uniform(params.domain_lo, params.domain_hi)
            hi = min(lo + rng.uniform(0.0, 2_000.0), params.domain_hi)
            return (round(lo, 3), round(max(lo, hi), 3))
        iv = clustered_intervals(params, 1, anchors, rng, sampler=sampler)[0]
        return (iv.lo, iv.hi)

    def join_key() -> float:
        x = rng.uniform(params.domain_lo, params.domain_hi)
        step = params.domain_width / config.join_key_grid
        return float(round(params.domain_lo + round((x - params.domain_lo) / step) * step))

    def interval_op(position: int) -> Op:
        if rng.random() < config.param_change_fraction:
            if rng.random() < 0.5:
                return Op(SET_EPSILON, 0, (rng.choice(config.epsilon_choices),))
            return Op(SET_ALPHA, 0, (rng.choice(config.alpha_choices),))
        over = len(live_intervals) >= config.max_live_intervals
        if live_intervals and (over or rng.random() < config.delete_fraction):
            victim = live_intervals.pick_victim(
                rng, position, config.churn, config.recent_window
            )
            if victim is not None:
                return Op(DELETE_INTERVAL, victim)
        key = fresh("interval")
        op = Op(INSERT_INTERVAL, key, interval_values())
        live_intervals.add(position, key)
        return op

    def engine_query_op(position: int) -> Op:
        # Cancelled at the row delete rate: the population climbs to its cap.
        over = len(live_queries) >= config.max_live_queries
        if live_queries and (over or rng.random() < config.delete_fraction):
            victim = live_queries.pick_victim(rng, position, 0.0, 0)
            if victim is not None:
                return Op(UNSUB, victim)
        key = fresh("query")
        live_queries.add(position, key)
        if rng.random() < 0.5:
            band = make_band_join_queries(params, 1, rng)[0].band
            return Op(SUB_BAND, key, (band.lo, band.hi))
        # rangeC on the interval ops' anchors: the hot groups grow large
        # enough to take the kernel's vectorised member test.
        query = make_select_join_queries(
            params, 1, rng, range_c_anchors=anchors, anchor_sampler=sampler
        )[0]
        return Op(
            SUB_SELECT,
            key,
            (query.range_a.lo, query.range_a.hi, query.range_c.lo, query.range_c.hi),
        )

    def engine_data_op(position: int) -> Op:
        relation = "r" if rng.random() < 0.5 else "s"
        live = live_r if relation == "r" else live_s
        over = len(live) >= config.max_live_rows
        if live and (over or rng.random() < config.delete_fraction):
            victim = live.pick_victim(rng, position, config.churn, config.recent_window)
            if victim is not None:
                return Op(DELETE_R if relation == "r" else DELETE_S, victim)
        key = fresh(relation)
        live.add(position, key)
        attr = float(round(rng.uniform(params.domain_lo, params.domain_hi)))
        if relation == "r":
            return Op(INSERT_R, key, (attr, join_key()))
        return Op(INSERT_S, key, (join_key(), attr))

    for position in range(config.n_ops):
        if rng.random() < config.engine_fraction:
            if rng.random() < config.query_fraction:
                ops.append(engine_query_op(position))
            else:
                ops.append(engine_data_op(position))
        else:
            ops.append(interval_op(position))
    return ops
