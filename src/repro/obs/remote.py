"""Cross-process telemetry: worker-side collection, parent-side merge.

The shm transport's shard workers each run their own
:class:`~repro.runtime.metrics.MetricsRegistry` and
:class:`~repro.obs.tracing.RingTracer` — instruments are
process-local by construction, so nothing here shares memory.  Instead
the worker periodically *ships a delta*: spans closed since the last
ship, counter increments, gauge absolutes, and bucket-wise histogram
deltas, packed as one TELEMETRY frame
(:mod:`repro.runtime.transport.frames`).  The parent folds each payload
into its own registry and tracer, so ``/metrics``, ``repro stats`` and
the exported Chrome trace show one unified view.

Naming on merge: worker metric names that already embed their shard
(``obs/shard/3/band/headroom``) merge verbatim — they are globally
unique by construction.  Names that do not (``runtime/hotspot_promotions``,
``worker/e2e/ingest_to_apply_us``) gain a ``shard/<N>/`` prefix — the
namespace the pipeline's own per-shard instruments use — so two workers
never collide on one parent instrument.

Deltas, not absolutes, for counters and histograms: the parent may also
increment the same merged name (it never does today, but addition makes
the merge idempotent-by-construction against that future); gauges are
point-in-time and merge last-writer-wins.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.obs.tracing import RingTracer, SpanRecord
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.transport.frames import HistogramDelta, TelemetryPayload

__all__ = [
    "TelemetryCollector",
    "merged_metric_name",
    "merge_telemetry",
]


def merged_metric_name(name: str, shard: int) -> str:
    """The parent-registry name for a worker metric.

    Names already scoped to the shard (any ``shard/<N>/`` path component)
    pass through unchanged; everything else gains a ``shard/<N>/`` prefix.
    """
    if f"/shard/{shard}/" in f"/{name}":
        return name
    return f"shard/{shard}/{name}"


class TelemetryCollector:
    """Worker-side incremental snapshotter: registry + tracer → payload.

    Each :meth:`collect` returns what changed since the previous call
    (first call: everything), advancing the collector's cursors.  Not
    thread-safe — the worker loop is single-threaded and owns it.

    ``tracer`` is ``None`` for a shard whose spans already go straight to
    the parent's tracer (``process-shm``'s shard 0, applied in the
    parent): its payloads carry metrics only.
    """

    __slots__ = (
        "shard",
        "registry",
        "tracer",
        "_seen_spans",
        "_counter_prev",
        "_hist_count_prev",
        "_hist_sum_prev",
        "_hist_buckets_prev",
    )

    def __init__(
        self, shard: int, registry: MetricsRegistry, tracer: Optional[RingTracer]
    ) -> None:
        self.shard = shard
        self.registry = registry
        self.tracer = tracer
        self._seen_spans = 0
        self._counter_prev: Dict[str, int] = {}
        self._hist_count_prev: Dict[str, int] = {}
        self._hist_sum_prev: Dict[str, float] = {}
        self._hist_buckets_prev: Dict[str, Dict[int, int]] = {}

    def collect(self) -> TelemetryPayload:
        """Everything recorded since the last collect, as one payload."""
        tracer = self.tracer
        if tracer is None:
            spans: List[SpanRecord] = []
            pid, trace_id, dropped = os.getpid(), 0, 0
        else:
            spans, self._seen_spans = tracer.since(self._seen_spans)
            pid, trace_id, dropped = tracer.pid, tracer.trace_id, tracer.dropped
        snap = self.registry.snapshot()
        counters: Dict[str, int] = {}
        for name, value in snap["counters"].items():
            delta = int(value) - self._counter_prev.get(name, 0)
            self._counter_prev[name] = int(value)
            if delta:
                counters[name] = delta
        gauges: Dict[str, float] = {
            name: float(value) for name, value in snap["gauges"].items()
        }
        histograms: Dict[str, HistogramDelta] = {}
        for name, hist in snap["histograms"].items():
            count = int(hist["count"])
            total_sum = float(hist["sum"])
            buckets: Dict[int, int] = {
                int(index): int(n) for index, n in hist["buckets"]
            }
            count_delta = count - self._hist_count_prev.get(name, 0)
            sum_delta = total_sum - self._hist_sum_prev.get(name, 0.0)
            prev_buckets = self._hist_buckets_prev.get(name, {})
            self._hist_count_prev[name] = count
            self._hist_sum_prev[name] = total_sum
            self._hist_buckets_prev[name] = buckets
            if count_delta <= 0:
                continue
            bucket_deltas: list[Tuple[int, int]] = sorted(
                (index, added)
                for index, n in buckets.items()
                if (added := n - prev_buckets.get(index, 0)) > 0
            )
            histograms[name] = HistogramDelta(
                count=count_delta,
                total=sum_delta,
                min_value=float(hist["min"]),
                max_value=float(hist["max"]),
                buckets=bucket_deltas,
            )
        return TelemetryPayload(
            pid=pid,
            shard=self.shard,
            trace_id=trace_id,
            spans_dropped=dropped,
            spans=list(spans),
            counters=counters,
            gauges=gauges,
            histograms=histograms,
        )


def merge_telemetry(
    registry: MetricsRegistry,
    tracer: Optional[RingTracer],
    payload: TelemetryPayload,
    *,
    process_name: Optional[str] = None,
) -> None:
    """Fold one worker payload into the parent's registry and tracer.

    ``tracer`` may be ``None`` (metrics-only deployments) — spans are then
    dropped on the floor, matching what an untraced parent would export.
    """
    shard = payload.shard
    if tracer is not None:
        tracer.set_process_name(
            payload.pid, process_name or f"shard{shard} worker (pid {payload.pid})"
        )
        for span in payload.spans:
            tracer.record(span)
    for name, delta in payload.counters.items():
        registry.counter(merged_metric_name(name, shard)).inc(delta)
    for name, value in payload.gauges.items():
        registry.gauge(merged_metric_name(name, shard)).set(value)
    for name, hist in payload.histograms.items():
        registry.histogram(merged_metric_name(name, shard)).merge_delta(
            count=hist.count,
            total=hist.total,
            min_value=hist.min_value,
            max_value=hist.max_value,
            buckets=hist.buckets,
        )
    registry.gauge(f"shard/{shard}/obs/spans_dropped").set(payload.spans_dropped)
