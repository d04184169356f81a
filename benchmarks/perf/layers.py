"""The per-layer metric catalogue and how a traced pass fills it in.

Layer names are the program's module names.  Every ``*_s`` metric is a
**self time** (see ``spans.py``) unless its line says otherwise, so the
seconds of all layers plus ``layers.unattributed_s`` add up to the traced
wall.  ``moves`` records, before anything is optimised, which end-to-end
metric on which workload the number should move: in the single-threaded
inline workloads a layer can save at most its self-time share; in
``shm_ingest`` parent and workers alternate, so encode/decode sit on the
blocking path and the slower shard sets the time of each round.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from repro.engine.events import DataEvent, EventKind

from spans import Hook, SpanShims


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


_EPS = "events_per_s"
_INGEST = "shm_ingest, durable_ingest"

CATALOGUE: List[Metric] = [
    # runtime.pipeline
    Metric("pipeline.self_s", "s", "lower", f"{_EPS} on {_INGEST} (largest fixed per-event cost)"),
    Metric("pipeline.batches", "count", "lower", f"{_EPS} on {_INGEST}"),
    Metric("pipeline.mean_batch_size", "events", "higher", "event_latency_p50_us on query_churn (barriers collapse batches)"),
    Metric("pipeline.backpressure_blocks", "count", "lower", "event_latency_p95_us everywhere (0 unless the queue fills)"),
    Metric("pipeline.result_rows", "rows", "higher", "none: output size, must repeat exactly"),
    # runtime.batching
    Metric("batching.drain_s", "s", "lower", f"{_EPS} on {_INGEST}"),
    Metric("batching.coalesced_pairs", "count", "higher", f"{_EPS} on {_INGEST} (pairs never reach a shard)"),
    Metric("batching.coalesce_ratio", "ratio", "higher", f"{_EPS} on {_INGEST}"),
    # runtime.sharding
    Metric("sharding.route_s", "s", "lower", f"{_EPS} everywhere"),
    Metric("sharding.fanout", "ratio", "lower", f"{_EPS} everywhere (shard entries per event)"),
    Metric("sharding.apply_self_s", "s", "lower", f"{_EPS} everywhere"),
    Metric("sharding.merge_s", "s", "lower", f"{_EPS} on band_probe, select_hotspot (large deltas)"),
    Metric("sharding.fastpath_run_share", "ratio", "higher", f"{_EPS} on band_probe, select_hotspot"),
    Metric("sharding.mean_run_len", "events", "higher", f"{_EPS} on band_probe"),
    Metric("sharding.imbalance", "ratio", "lower", "event_latency_p95_us on shm_ingest (slowest shard sets the round)"),
    # runtime.transport -- zero on the inline workloads
    Metric("transport.encode_s", "s", "lower", f"{_EPS}, event_latency_p50_us on shm_ingest"),
    Metric("transport.send_s", "s", "lower", f"{_EPS} on shm_ingest (workers already run during it)"),
    Metric("transport.recv_wait_s", "s", "lower", f"{_EPS} on shm_ingest (workers run during it)"),
    Metric("transport.worker_apply_s", "s", "lower", f"{_EPS} on shm_ingest (slowest worker per round, summed)"),
    Metric("transport.wakeup_s", "s", "lower", "event_latency_p50_us on shm_ingest (send + recv_wait - worker_apply)"),
    Metric("transport.decode_s", "s", "lower", f"{_EPS}, event_latency_p50_us on shm_ingest"),
    Metric("transport.telemetry_merge_s", "s", "lower", f"{_EPS} on shm_ingest"),
    Metric("transport.frames", "count", "lower", f"{_EPS} on shm_ingest"),
    Metric("transport.bytes_out", "bytes", "lower", f"{_EPS} on shm_ingest"),
    Metric("transport.bytes_in", "bytes", "lower", f"{_EPS} on shm_ingest"),
    Metric("transport.bytes_per_event", "bytes/event", "lower", f"{_EPS} on shm_ingest"),
    Metric("transport.recv_empty_polls", "count", "lower", "event_latency_p95_us on shm_ingest (50 ms poll expiries)"),
    # fastpath
    Metric("fastpath.band_probe_s", "s", "lower", f"{_EPS} on band_probe; ~0 on query_churn"),
    Metric("fastpath.select_probe_s", "s", "lower", f"{_EPS} on select_hotspot; ~0 on query_churn"),
    Metric("fastpath.rows_probed", "rows", "higher", f"{_EPS} on band_probe, select_hotspot"),
    Metric("fastpath.calls", "count", "lower", f"{_EPS} on band_probe, select_hotspot"),
    # operators
    Metric("operators.process_batch_self_s", "s", "lower", f"{_EPS} on select_hotspot (scattered scans)"),
    Metric("operators.process_event_s", "s", "lower", f"{_EPS} on select_hotspot, query_churn (runs of one)"),
    Metric("operators.add_query_s", "s", "lower", f"{_EPS} on query_churn"),
    Metric("operators.remove_query_s", "s", "lower", f"{_EPS} on query_churn"),
    Metric("operators.hotspot_coverage", "ratio", "higher", f"{_EPS} on select_hotspot (share of queries group-probed)"),
    # core
    Metric("core.tracker_insert_s", "s", "lower", f"{_EPS} on query_churn (incl. promotion index builds)"),
    Metric("core.tracker_delete_s", "s", "lower", f"{_EPS} on query_churn"),
    Metric("core.promotions", "count", "lower", "event_latency_p95_us on query_churn"),
    Metric("core.demotions", "count", "lower", "event_latency_p95_us on query_churn"),
    Metric("core.partition_rebuilds", "count", "lower", "event_latency_p95_us on query_churn (rebuild spikes)"),
    Metric("core.rebuild_s", "s", "lower", "event_latency_p95_us on query_churn (total, inside tracker time)"),
    Metric("core.ssi_groups", "count", "lower", f"{_EPS} on band_probe, select_hotspot (one probe per group)"),
    # dstruct
    Metric("dstruct.flat_snapshot_s", "s", "lower", f"{_EPS} on band_probe"),
    Metric("dstruct.flat_snapshot_calls", "count", "lower", f"{_EPS} on band_probe"),
    Metric("dstruct.flat_snapshot_hit_ratio", "ratio", "higher", f"{_EPS} on band_probe (falls as deletes rise)"),
    # engine
    Metric("engine.table_insert_s", "s", "lower", f"{_EPS} on {_INGEST} (K-fold replicated state install)"),
    Metric("engine.table_delete_s", "s", "lower", f"{_EPS} on {_INGEST}"),
    Metric("engine.table_rows", "rows", "lower", "peak_rss_mb everywhere"),
    Metric("engine.reference_events_per_s", "1/s", "higher", "none: the unsharded single-thread baseline"),
    # durability -- zero except on durable_ingest
    Metric("durability.log_event_s", "s", "lower", f"{_EPS} on durable_ingest (log_event + WAL append)"),
    Metric("durability.encode_s", "s", "lower", f"{_EPS} on durable_ingest"),
    Metric("durability.sync_s", "s", "lower", f"{_EPS}, event_latency_p50_us on durable_ingest"),
    Metric("durability.fsyncs", "count", "lower", f"{_EPS} on durable_ingest"),
    Metric("durability.checkpoint_s", "s", "lower", "event_latency_p95_us on durable_ingest"),
    Metric("durability.checkpoints", "count", "lower", "event_latency_p95_us on durable_ingest"),
    Metric("durability.wal_bytes", "bytes", "lower", f"{_EPS} on durable_ingest"),
    Metric("durability.bytes_per_event", "bytes/event", "lower", f"{_EPS} on durable_ingest"),
    Metric("durability.recover_s", "s", "lower", "none: untimed recovery of the run's WAL directory"),
    # the tracing itself
    # Full protocol only (null in a pass run alone, and not in BENCHMARK.json).
    Metric("obs.traced_overhead_ratio", "ratio", "lower", "none: cost of the traced pass over the untraced ones"),
    Metric("layers.unattributed_s", "s", "lower", "none: traced wall outside every span (the client loop)"),
    Metric("layers.unattributed_ratio", "ratio", "lower", "none: must stay <= 0.10"),
]

#: Traced wall that no span covers may be at most this share of it.
UNATTRIBUTED_LIMIT = 0.10

#: Layer -> the self-time metrics that make up its share of the traced wall.
LAYER_SECONDS: Dict[str, List[str]] = {
    "runtime.pipeline": ["pipeline.self_s"],
    "runtime.batching": ["batching.drain_s"],
    "runtime.sharding": ["sharding.route_s", "sharding.apply_self_s", "sharding.merge_s"],
    # send + recv_wait is wakeup + worker_apply (a worker starts on its
    # frame while the parent is still sending the next shard's); only the
    # wakeup part is the transport's.
    "runtime.transport": [
        "transport.encode_s", "transport.wakeup_s",
        "transport.decode_s", "transport.telemetry_merge_s",
    ],
    "workers": ["transport.worker_apply_s"],
    "fastpath": ["fastpath.band_probe_s", "fastpath.select_probe_s"],
    "operators": [
        "operators.process_batch_self_s", "operators.process_event_s",
        "operators.add_query_s", "operators.remove_query_s",
    ],
    "core": ["core.tracker_insert_s", "core.tracker_delete_s"],
    "dstruct": ["dstruct.flat_snapshot_s"],
    "engine": ["engine.table_insert_s", "engine.table_delete_s"],
    "durability": [
        "durability.log_event_s", "durability.encode_s",
        "durability.sync_s", "durability.checkpoint_s",
    ],
}


class Probe:
    """Counts the shims' post-call hooks collect at the layer boundaries."""

    def __init__(self) -> None:
        self.fastpath_rows = 0
        self.band_run_rows = 0  # rows through band-plane batch calls
        self.band_run_calls = 0
        self.snapshot_hits = 0
        self.recv_empty = 0
        self.wal_bytes = 0
        self._last_snapshot: Dict[int, Any] = {}  # id(tree) -> keys list

    def hooks(self) -> Dict[str, Hook]:
        def fastpath(args: Any, kwargs: Any, result: Any) -> None:
            self.fastpath_rows += len(args[1])

        def band_batch(args: Any, kwargs: Any, result: Any) -> None:
            self.band_run_rows += len(args[1])
            self.band_run_calls += 1

        def snapshot(args: Any, kwargs: Any, result: Any) -> None:
            tree = id(args[0])
            if self._last_snapshot.get(tree) is result[0]:
                self.snapshot_hits += 1
            else:
                self._last_snapshot[tree] = result[0]

        def recv(args: Any, kwargs: Any, result: Any) -> None:
            if result is None:
                self.recv_empty += 1

        def wal_append(args: Any, kwargs: Any, result: Any) -> None:
            self.wal_bytes += len(args[1])

        return {
            "fastpath.band_r": fastpath, "fastpath.band_s": fastpath,
            "fastpath.select_r": fastpath, "fastpath.select_s": fastpath,
            "operators.band.process_batch": band_batch,
            "dstruct.flat_snapshot": snapshot,
            "transport.recv": recv,
            "durability.wal_append": wal_append,
        }


# -- the program's own registry ----------------------------------------------


def registry_totals(metrics: Any) -> Dict[str, Dict[str, float]]:
    """Counter values, histogram sums and gauge values by name."""
    snapshot = metrics.snapshot()
    return {
        "counters": dict(snapshot["counters"]),
        "sums": {name: h["sum"] for name, h in snapshot["histograms"].items()},
        "gauges": dict(snapshot["gauges"]),
    }


def totals_delta(before: Dict[str, Dict[str, float]], after: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """``after - before`` for counters and sums; gauges as they ended."""
    return {
        "counters": {k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()},
        "sums": {k: v - before["sums"].get(k, 0.0) for k, v in after["sums"].items()},
        "gauges": after["gauges"],
    }


def _suffix_sum(values: Dict[str, float], suffix: str) -> float:
    """Sum over names ending in ``suffix``: inline shards report as
    ``shard/<i>/...``, shm workers merge in as ``shard<N>/...``."""
    return sum(v for k, v in values.items() if k.endswith(suffix))


def repeat_counts(delta: Dict[str, Dict[str, float]], at_end: Dict[str, int]) -> Dict[str, int]:
    """Counts both a timed and a traced pass observe and that must repeat
    exactly for one seed and scale."""
    counters = delta["counters"]
    return {
        "result_rows": int(counters.get("pipeline/results_produced", 0)),
        "events_applied": int(counters.get("pipeline/events_applied", 0)),
        "batches": int(counters.get("pipeline/batches", 0)),
        "coalesced_pairs": at_end["coalesced_pairs"],
        "subscriptions": at_end["subscriptions"],
        "bytes_out": int(counters.get("transport/bytes_out", 0)),
        "promotions": int(_suffix_sum(counters, "runtime/hotspot_promotions")),
        "demotions": int(_suffix_sum(counters, "runtime/hotspot_demotions")),
        "fsyncs": int(counters.get("durability/wal_fsync_total", 0)),
        "checkpoints": int(counters.get("durability/checkpoints_total", 0)),
    }


# -- derivation ---------------------------------------------------------------


def _worker_apply_s(tracer: Any, started_ns: int) -> float:
    """Slowest ``worker.batch`` span of each round trip, summed over the
    rounds that began inside the timed section."""
    slowest: Dict[int, int] = {}
    for record in tracer.snapshot():
        if record.name == "worker.batch" and record.ts_ns >= started_ns:
            slowest[record.parent_id] = max(slowest.get(record.parent_id, 0), record.dur_ns)
    return sum(slowest.values()) / 1e9


def _end_state(wl: Any, pipeline: Any, gauges: Dict[str, float]) -> Dict[str, float]:
    """Hotspot coverage, SSI group count and table rows at the end of the
    run: read off the shards inline, off the workers' gauges in shm mode."""
    try:
        shards = pipeline.shards
    except RuntimeError:
        # One ``.../<plane>/groups`` and ``.../<plane>/hotspot_coverage``
        # gauge per worker plane; a plane without groups has no coverage.
        planes = {k[: -len("/groups")]: v for k, v in gauges.items() if k.endswith("/groups") and v}
        return {
            "coverage": sum(gauges[p + "/hotspot_coverage"] for p in planes) / len(planes) if planes else 0.0,
            "groups": sum(planes.values()),
            # Worker tables are out of reach; the generator's bookkeeping
            # stands in (the inline twin checks it against real tables).
            "rows": float(wl.final_rows_r + wl.final_rows_s),
        }
    queries = covered = groups = 0.0
    for shard in shards:
        for processor in (shard.band, shard.select):
            tracker = getattr(processor, "tracker", None)
            n = processor.query_count
            queries += n
            if tracker is None:  # pure SSI: every group is probed as a group
                covered += n
                groups += processor.group_count
            else:
                covered += n * processor.hotspot_coverage
                groups += len(tracker.hotspot_groups)
    first = shards[0]
    return {
        "coverage": covered / queries if queries else 0.0,
        "groups": groups,
        "rows": float(len(first.table_r) + len(first.table_s_band)),
    }


def derive(
    wl: Any,
    pipeline: Any,
    shims: SpanShims,
    probe: Probe,
    tracer: Any,
    delta: Dict[str, Dict[str, float]],
    *,
    wall: float,
    started_ns: int,
) -> Dict[str, Optional[float]]:
    """Every catalogue metric the timed section itself determines; the pass
    adds ``durability.recover_s`` and ``engine.reference_events_per_s``, the
    full protocol ``obs.traced_overhead_ratio``."""
    counters = delta["counters"]
    sums = delta["sums"]
    self_s = shims.self_s
    count = shims.count
    events = len(wl.stream) - wl.spec.batch_size
    data_applied = counters.get("pipeline/events_applied", 0)
    batches = counters.get("pipeline/batches", 0)
    pairs = len(pipeline.cancelled_pairs)
    deletes = sum(
        1 for e in wl.stream[wl.spec.batch_size:]
        if isinstance(e, DataEvent) and e.kind is EventKind.DELETE
    )
    inserts_applied = data_applied - (deletes - pairs)
    shard_entries = sum(
        v for k, v in counters.items() if k.startswith("shard/") and k.endswith("/events")
    )
    busy = [v for k, v in sums.items() if k.startswith("shard/") and k.endswith("/batch_us")]
    send = self_s("transport.send")
    recv_wait = self_s("transport.recv")
    ring = None if send is None or recv_wait is None else send + recv_wait
    # A worker cannot be busy longer than the parent was sending or waiting.
    worker_apply = min(_worker_apply_s(tracer, started_ns), ring) if ring else 0.0
    snapshot_calls = count("dstruct.flat_snapshot")
    end = _end_state(wl, pipeline, delta["gauges"])
    planes = ("band", "select")

    def ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
        if numerator is None or denominator is None:
            return None
        return numerator / denominator if denominator else 0.0

    out: Dict[str, Optional[float]] = {
        "pipeline.self_s": self_s(
            "pipeline.submit", "pipeline.flush", "pipeline.drain",
            "pipeline.subscribe", "pipeline.unsubscribe",
        ),
        "pipeline.batches": batches,
        "pipeline.mean_batch_size": ratio(data_applied, batches),
        "pipeline.backpressure_blocks": counters.get("pipeline/backpressure_blocks", 0),
        "pipeline.result_rows": counters.get("pipeline/results_produced", 0),
        "batching.drain_s": self_s("batching.drain"),
        "batching.coalesced_pairs": pairs,
        "batching.coalesce_ratio": ratio(pairs, deletes),
        "sharding.route_s": self_s("sharding.route_event", "sharding.note_event"),
        "sharding.fanout": ratio(shard_entries, data_applied),
        "sharding.apply_self_s": self_s("sharding.apply_batch", "sharding.apply"),
        "sharding.merge_s": self_s("sharding.merge_deltas"),
        # Each shard's band plane sees every insert once, so its batch calls
        # count the rows that took a run; the rest went through apply().
        "sharding.fastpath_run_share": ratio(probe.band_run_rows, inserts_applied * wl.spec.num_shards),
        "sharding.mean_run_len": ratio(probe.band_run_rows, probe.band_run_calls),
        "sharding.imbalance": ratio(max(busy), sum(busy) / len(busy)) if busy else None,
        "transport.encode_s": self_s("transport.encode"),
        "transport.send_s": send,
        "transport.recv_wait_s": recv_wait,
        "transport.worker_apply_s": worker_apply,
        "transport.wakeup_s": None if ring is None else ring - worker_apply,
        "transport.decode_s": self_s("transport.decode"),
        "transport.telemetry_merge_s": self_s("transport.telemetry_merge"),
        "transport.frames": count("transport.send", "transport.decode"),
        "transport.bytes_out": counters.get("transport/bytes_out", 0),
        "transport.bytes_in": counters.get("transport/bytes_in", 0),
        "transport.bytes_per_event": ratio(
            counters.get("transport/bytes_out", 0) + counters.get("transport/bytes_in", 0), events
        ),
        "transport.recv_empty_polls": probe.recv_empty,
        "fastpath.band_probe_s": self_s("fastpath.band_r", "fastpath.band_s"),
        "fastpath.select_probe_s": self_s("fastpath.select_r", "fastpath.select_s"),
        "fastpath.rows_probed": probe.fastpath_rows,
        "fastpath.calls": count(
            "fastpath.band_r", "fastpath.band_s", "fastpath.select_r", "fastpath.select_s"
        ),
        "operators.process_batch_self_s": self_s(*(f"operators.{p}.process_batch" for p in planes)),
        "operators.process_event_s": self_s(*(f"operators.{p}.process_event" for p in planes)),
        "operators.add_query_s": self_s(*(f"operators.{p}.add_query" for p in planes)),
        "operators.remove_query_s": self_s(*(f"operators.{p}.remove_query" for p in planes)),
        "operators.hotspot_coverage": end["coverage"],
        "core.tracker_insert_s": self_s("core.tracker_insert"),
        "core.tracker_delete_s": self_s("core.tracker_delete"),
        "core.promotions": _suffix_sum(counters, "runtime/hotspot_promotions"),
        "core.demotions": _suffix_sum(counters, "runtime/hotspot_demotions"),
        "core.partition_rebuilds": _suffix_sum(counters, "/reconstructions"),
        "core.rebuild_s": _suffix_sum(sums, "/reconstruction_us") / 1e6,
        "core.ssi_groups": end["groups"],
        "dstruct.flat_snapshot_s": self_s("dstruct.flat_snapshot"),
        "dstruct.flat_snapshot_calls": snapshot_calls,
        "dstruct.flat_snapshot_hit_ratio": ratio(probe.snapshot_hits, snapshot_calls),
        "engine.table_insert_s": self_s("engine.table_insert"),
        "engine.table_delete_s": self_s("engine.table_delete"),
        "engine.table_rows": end["rows"],
        "durability.log_event_s": self_s("durability.log_event", "durability.wal_append"),
        "durability.encode_s": self_s("durability.encode"),
        "durability.sync_s": self_s("durability.sync"),
        "durability.fsyncs": counters.get("durability/wal_fsync_total", 0),
        "durability.checkpoint_s": self_s("durability.checkpoint"),
        "durability.checkpoints": counters.get("durability/checkpoints_total", 0),
        "durability.wal_bytes": probe.wal_bytes,
        "durability.bytes_per_event": ratio(probe.wal_bytes, events),
    }
    attributed = shims.attributed_s()
    out["layers.unattributed_s"] = wall - attributed
    out["layers.unattributed_ratio"] = (wall - attributed) / wall
    return out


def layer_shares(per_layer: Dict[str, Optional[float]], wall: float) -> Dict[str, float]:
    """Each layer's share of the traced wall, from its self-time metrics."""
    return {
        layer: sum(per_layer.get(name) or 0.0 for name in names) / wall
        for layer, names in LAYER_SECONDS.items()
    }
