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

Naming: there is no renaming on merge.  Every metric a worker keeps is
named for its shard where it is created (``shard/3/runtime/
hotspot_promotions``, ``obs/shard/3/band/headroom``), and the TELEMETRY
decoder refuses a name without the sending shard's ``shard/<N>/`` path
component, so two workers never collide on one parent instrument.

Deltas, not absolutes, for counters and histograms: the parent may also
increment the same name (it never does today, but addition makes
the merge idempotent-by-construction against that future); gauges are
point-in-time and merge last-writer-wins.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.tracing import RingTracer
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.transport.frames import HistogramDelta, TelemetryPayload

__all__ = [
    "TelemetryCollector",
    "merge_telemetry",
]


class TelemetryCollector:
    """Worker-side incremental snapshotter: registry + tracer → payload.

    Each :meth:`collect` returns what changed since the previous call
    (first call: everything), advancing the collector's cursors.  Not
    thread-safe — the worker loop is single-threaded and owns it.
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

    def __init__(self, shard: int, registry: MetricsRegistry, tracer: RingTracer) -> None:
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
        spans, self._seen_spans = tracer.since(self._seen_spans)
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
            pid=tracer.pid,
            shard=self.shard,
            trace_id=tracer.trace_id,
            spans_dropped=tracer.dropped,
            spans=list(spans),
            counters=counters,
            gauges=gauges,
            histograms=histograms,
        )


def merge_telemetry(
    registry: MetricsRegistry,
    tracer: Optional[RingTracer],
    payload: TelemetryPayload,
) -> None:
    """Fold one worker payload into the parent's registry and tracer,
    every metric under the name it arrived with.

    ``tracer`` may be ``None`` (metrics-only deployments) — spans are then
    dropped on the floor, matching what an untraced parent would export.
    """
    shard = payload.shard
    if tracer is not None:
        tracer.set_process_name(payload.pid, f"shard{shard} worker (pid {payload.pid})")
        for span in payload.spans:
            tracer.record(span)
    for name, delta in payload.counters.items():
        registry.counter(name).inc(delta)
    for name, value in payload.gauges.items():
        registry.gauge(name).set(value)
    for name, hist in payload.histograms.items():
        registry.histogram(name).merge_delta(
            count=hist.count,
            total=hist.total,
            min_value=hist.min_value,
            max_value=hist.max_value,
            buckets=hist.buckets,
        )
    registry.gauge(f"shard/{shard}/obs/spans_dropped").set(payload.spans_dropped)
