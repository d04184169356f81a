"""Synthetic workload generation per Section 4 / Table 1.

Generators are deterministic given a seed and return plain engine objects
(tables, query lists, event tuples), so every benchmark replays identical
workloads against every strategy.

Beyond the literal Table 1 distributions, two controls the evaluation
sweeps need are exposed directly:

* **clusteredness** — :func:`clustered_intervals` draws query ranges around
  a fixed set of anchor points so the canonical stabbing number is (at
  most, and in practice exactly) the anchor count; Figures 7(ii), 9 and
  10(ii) sweep it.
* **selectivity** — rangeA length (Figure 8(iii)) and the S.B sigma
  (Figure 8(iv)) are plain parameters.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.core.intervals import Interval
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.table import TableR, TableS
from repro.workload.params import WorkloadParams
from repro.workload.zipf import ZipfSampler


def _value(params: WorkloadParams, x: float) -> float:
    """Clip to the domain; round when the workload is integer-valued."""
    x = min(max(x, params.domain_lo), params.domain_hi)
    return float(round(x)) if params.integer_valued else x


def _join_key(params: WorkloadParams, x: float) -> float:
    """Clip and snap a join-key value to the configured key grid."""
    x = min(max(x, params.domain_lo), params.domain_hi)
    if params.join_key_grid:
        step = params.domain_width / params.join_key_grid
        x = params.domain_lo + round((x - params.domain_lo) / step) * step
    return float(round(x)) if params.integer_valued else x


def _interval(params: WorkloadParams, mid: float, length: float) -> Interval:
    length = max(abs(length), 1.0 if params.integer_valued else 1e-6)
    lo = _value(params, mid - length / 2.0)
    hi = _value(params, mid + length / 2.0)
    if lo > hi:  # clipping degenerated the range
        lo = hi
    if lo == hi:
        hi = min(lo + 1.0, params.domain_hi)
        if lo == hi:
            lo = hi - 1.0
    return Interval(lo, hi)


def make_tables(params: WorkloadParams, rng: Optional[random.Random] = None) -> Tuple[TableR, TableS]:
    """Base tables per Table 1: R.A, R.B, S.C uniform; S.B discretized
    normal (the join-selectivity knob).  Every B+-tree is built before the
    tables are returned, as the paper's are before it measures, so no
    measured per-event call pays for the build."""
    rng = rng if rng is not None else random.Random(params.seed)
    table_r = TableR()
    table_s = TableS()
    for __ in range(params.table_size):
        a = _value(params, rng.uniform(params.domain_lo, params.domain_hi))
        b = _join_key(params, rng.uniform(params.domain_lo, params.domain_hi))
        table_r.add(a, b)
    for __ in range(params.table_size):
        b = _join_key(params, rng.normalvariate(params.s_b_mean, params.s_b_sigma))
        c = _value(params, rng.uniform(params.domain_lo, params.domain_hi))
        table_s.add(b, c)
    for table, names in ((table_r, ("by_b", "by_ba")), (table_s, ("by_b", "by_bc"))):
        for name in names:
            getattr(table, name)  # built on first read
    return table_r, table_s


def r_insert_events(
    params: WorkloadParams, count: int, rng: Optional[random.Random] = None
) -> List[Tuple[float, float]]:
    """(a, b) pairs for a stream of R-insertions, A and B uniform."""
    rng = rng if rng is not None else random.Random(params.seed + 1)
    return [
        (
            _value(params, rng.uniform(params.domain_lo, params.domain_hi)),
            _join_key(params, rng.uniform(params.domain_lo, params.domain_hi)),
        )
        for __ in range(count)
    ]


def make_select_join_queries(
    params: WorkloadParams,
    count: Optional[int] = None,
    rng: Optional[random.Random] = None,
    *,
    range_c_anchors: Optional[Sequence[float]] = None,
    anchor_sampler: Optional[ZipfSampler] = None,
) -> List[SelectJoinQuery]:
    """Equality-join queries with local selections per Table 1.

    With ``range_c_anchors`` the rangeC midpoints cluster on the anchors
    (each range contains its anchor), fixing the stabbing number; otherwise
    midpoints are uniform as in Table 1.
    """
    rng = rng if rng is not None else random.Random(params.seed + 2)
    count = params.query_count if count is None else count
    queries: List[SelectJoinQuery] = []
    for __ in range(count):
        a_mid = rng.normalvariate(params.range_a_mid_mean, params.range_a_mid_sigma)
        a_len = rng.normalvariate(params.range_a_len_mean, params.range_a_len_sigma)
        range_a = _interval(params, a_mid, a_len)
        if range_c_anchors is not None:
            range_c = _anchored_interval(params, rng, range_c_anchors, anchor_sampler,
                                         params.range_c_len_mean, params.range_c_len_sigma)
        else:
            c_mid = rng.uniform(params.domain_lo, params.domain_hi)
            c_len = rng.normalvariate(params.range_c_len_mean, params.range_c_len_sigma)
            range_c = _interval(params, c_mid, c_len)
        queries.append(SelectJoinQuery(range_a, range_c))
    return queries


def make_band_join_queries(
    params: WorkloadParams,
    count: Optional[int] = None,
    rng: Optional[random.Random] = None,
    *,
    band_anchors: Optional[Sequence[float]] = None,
    anchor_sampler: Optional[ZipfSampler] = None,
) -> List[BandJoinQuery]:
    """Band joins per Table 1: band midpoints uniform over the (centered)
    band domain, lengths Normal(mu3, sigma3).  Anchors fix the stabbing
    number, as for select-joins.
    """
    rng = rng if rng is not None else random.Random(params.seed + 3)
    count = params.query_count if count is None else count
    half = params.domain_width / 2.0
    queries: List[BandJoinQuery] = []
    for __ in range(count):
        if band_anchors is not None:
            idx = anchor_sampler.sample(rng) if anchor_sampler else rng.randrange(len(band_anchors))
            anchor = band_anchors[idx]
            left = abs(rng.normalvariate(params.band_len_mean / 2.0, params.band_len_sigma))
            right = abs(rng.normalvariate(params.band_len_mean / 2.0, params.band_len_sigma))
            band = Interval(anchor - left, anchor + right)
        else:
            mid = rng.uniform(-half, half)
            length = max(abs(rng.normalvariate(params.band_len_mean, params.band_len_sigma)), 1.0)
            band = Interval(mid - length / 2.0, mid + length / 2.0)
        queries.append(BandJoinQuery(band))
    return queries


def _anchored_interval(
    params: WorkloadParams,
    rng: random.Random,
    anchors: Sequence[float],
    sampler: Optional[ZipfSampler],
    len_mean: float,
    len_sigma: float,
) -> Interval:
    idx = sampler.sample(rng) if sampler else rng.randrange(len(anchors))
    anchor = anchors[idx]
    left = abs(rng.normalvariate(len_mean / 2.0, len_sigma))
    right = abs(rng.normalvariate(len_mean / 2.0, len_sigma))
    lo = max(params.domain_lo, anchor - left)
    hi = min(params.domain_hi, anchor + right)
    lo = min(lo, anchor)
    hi = max(hi, anchor)
    if lo == hi:
        hi = min(hi + 1.0, params.domain_hi)
        lo = max(lo - 1.0, params.domain_lo)
    return Interval(lo, hi)


def spread_anchors(params: WorkloadParams, count: int) -> List[float]:
    """``count`` anchor points spread evenly over the domain interior."""
    if count < 1:
        raise ValueError("need at least one anchor")
    width = params.domain_width
    return [
        params.domain_lo + width * (i + 1) / (count + 1) for i in range(count)
    ]


def clustered_intervals(
    params: WorkloadParams,
    count: int,
    anchors: Sequence[float],
    rng: Optional[random.Random] = None,
    *,
    sampler: Optional[ZipfSampler] = None,
    len_mean: Optional[float] = None,
    len_sigma: Optional[float] = None,
) -> List[Interval]:
    """Intervals drawn around anchors (each contains its anchor), so the
    canonical stabbing number is at most ``len(anchors)``."""
    rng = rng if rng is not None else random.Random(params.seed + 4)
    len_mean = params.range_c_len_mean if len_mean is None else len_mean
    len_sigma = params.range_c_len_sigma if len_sigma is None else len_sigma
    return [
        _anchored_interval(params, rng, anchors, sampler, len_mean, len_sigma)
        for __ in range(count)
    ]


def mixed_query_stream(
    queries: List,
    update_count: int,
    make_query,
    rng: Optional[random.Random] = None,
    *,
    insert_probability: float = 0.5,
    seed: int = 99,
):
    """A stream of query insertions/deletions for the Figure 11 benchmark.

    Yields ("insert", query) / ("delete", query) pairs; deletions pick a
    random live query, insertions call ``make_query(rng)``.  The live set
    starts as ``queries`` (not consumed) and the stream keeps it nonempty.
    """
    rng = rng if rng is not None else random.Random(seed)
    live = list(queries)
    for __ in range(update_count):
        if live and rng.random() >= insert_probability:
            idx = rng.randrange(len(live))
            live[idx], live[-1] = live[-1], live[idx]
            yield "delete", live.pop()
        else:
            query = make_query(rng)
            live.append(query)
            yield "insert", query
