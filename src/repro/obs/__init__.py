"""Observability: tracing spans, metric export, hotspot telemetry.

The paper's contribution is visibility into *structure* — which query
groups are hotspots, how much the maintained partition costs — and this
package makes that visibility operational:

* :mod:`repro.obs.tracing` — span context managers over a single-writer
  ring buffer, exportable as Chrome ``trace_event`` JSON; the
  :data:`~repro.obs.tracing.NULL_TRACER` default makes instrumentation
  free when disabled;
* :mod:`repro.obs.export` — Prometheus text exposition, JSONL snapshot
  streams, interpolated p50/p95/p99 from the runtime's power-of-two
  histograms, and a background HTTP endpoint that serves the last
  published snapshot;
* :mod:`repro.obs.hotspot_telemetry` — tracker/partition listeners
  recording promotion/demotion churn, reconstruction durations, and the
  invariant I2 headroom ``(1 + eps) * tau + 2/alpha - |I|``;
* :mod:`repro.obs.remote` — cross-process telemetry for the shm
  transport: worker-side delta collection and parent-side merge into one
  registry and one trace (imported directly, not re-exported here — it
  sits above :mod:`repro.runtime.transport` in the import order);
* :mod:`repro.obs.top` — the ``repro top`` dashboard renderer and the
  ``stats --watch`` refresh loop (imported directly for the same reason
  ``remote`` is: it pulls in no transport code but is CLI-facing, not a
  library surface).

Wired through ``repro serve --trace-out/--metrics-port/--snapshot-out``
and read back by ``repro stats`` / ``repro top``; see
``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    EXPORT_QUANTILES,
    MetricsServer,
    SnapshotWriter,
    bucket_bounds,
    estimate_quantile,
    estimate_quantiles,
    latest_snapshot,
    metric_help,
    read_snapshots,
    render_prometheus,
    render_snapshot,
)
from repro.obs.hotspot_telemetry import (
    HeadroomSample,
    HotspotChurnTelemetry,
    HotspotTelemetry,
    ReconstructionTelemetry,
    hotspot_headroom,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    RingTracer,
    SpanRecord,
    Tracer,
    new_trace_id,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "EXPORT_QUANTILES",
    "MetricsServer",
    "SnapshotWriter",
    "bucket_bounds",
    "estimate_quantile",
    "estimate_quantiles",
    "latest_snapshot",
    "metric_help",
    "read_snapshots",
    "render_prometheus",
    "render_snapshot",
    "HeadroomSample",
    "HotspotChurnTelemetry",
    "HotspotTelemetry",
    "ReconstructionTelemetry",
    "hotspot_headroom",
    "NULL_TRACER",
    "NullTracer",
    "RingTracer",
    "SpanRecord",
    "Tracer",
    "new_trace_id",
    "to_chrome_trace",
    "write_chrome_trace",
]
