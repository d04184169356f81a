"""Metric exposition: Prometheus text, JSONL snapshots, HTTP endpoint.

Everything here consumes the plain-dict output of
:meth:`repro.runtime.metrics.MetricsRegistry.snapshot` — the exporters
never hold references to live instruments.  The registry has one writer,
the data path; a snapshot it took shares nothing with it, so the
:class:`MetricsServer` thread renders the last *published* snapshot
without touching the registry.

Quantiles: the runtime's histograms are power-of-two bucketed (bucket 0
is ``[0, 1)``, bucket ``i`` is ``[2**(i-1), 2**i)``), and a histogram
snapshot carries its count, sum, min, max, mean and nonzero buckets — no
quantile.
:func:`estimate_quantile` is the one place a quantile is computed: it
interpolates the requested rank's position inside its bucket, so the
estimate always lands strictly inside the true bucket's ``[lo, hi)``
range (property-tested in ``tests/test_metrics_properties.py``).

The JSONL snapshot stream (one JSON object per line, ``seq`` strictly
increasing) is what ``repro serve --snapshot-out`` appends and
``repro stats --jsonl`` reads back.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracing import RingTracer, TraceExport, chrome_trace_of_export
from repro.runtime.metrics import MetricsRegistry, N_HISTOGRAM_BUCKETS

__all__ = [
    "EXPORT_QUANTILES",
    "bucket_bounds",
    "estimate_quantile",
    "estimate_quantiles",
    "metric_help",
    "render_prometheus",
    "render_snapshot",
    "SnapshotWriter",
    "read_snapshots",
    "latest_snapshot",
    "MetricsServer",
]

#: The quantiles every exposition surface reports for histograms.
EXPORT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def bucket_bounds(index: int) -> Tuple[float, float]:
    """The ``[lo, hi)`` range of log2 bucket ``index``.

    Bucket 0 holds ``[0, 1)``; bucket ``i >= 1`` holds ``[2**(i-1), 2**i)``.
    The last bucket saturates, so its upper bound is infinite.
    """
    if not 0 <= index < N_HISTOGRAM_BUCKETS:
        raise ValueError(f"bucket index out of range: {index}")
    lo = 0.0 if index == 0 else float(2 ** (index - 1))
    hi = float("inf") if index == N_HISTOGRAM_BUCKETS - 1 else float(2**index)
    return lo, hi


def estimate_quantile(
    buckets: Sequence[Sequence[int]], count: int, q: float
) -> float:
    """Interpolated ``q``-quantile from nonzero ``(index, count)`` pairs.

    ``buckets`` is the ``"buckets"`` entry of a histogram snapshot:
    ascending bucket indices with their counts.  The rank's offset within
    its bucket is placed at the midpoint of its within-bucket slot
    (``(rank - seen - 0.5) / n``), so the estimate is strictly inside the
    bucket's ``[lo, hi)`` range whenever the bucket is bounded.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if count <= 0:
        return 0.0
    rank = max(1, math.ceil(q * count))
    seen = 0
    for index, n in buckets:
        if n and seen + n >= rank:
            lo, hi = bucket_bounds(index)
            if math.isinf(hi):
                return lo  # saturated top bucket: no width to interpolate
            return lo + (hi - lo) * ((rank - seen - 0.5) / n)
        seen += n
    raise ValueError("bucket counts inconsistent with count")


def estimate_quantiles(histogram_snapshot: Dict[str, Any]) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` for one histogram snapshot."""
    buckets = histogram_snapshot.get("buckets", [])
    count = int(histogram_snapshot.get("count", 0))
    return {
        f"p{int(q * 100)}": estimate_quantile(buckets, count, q)
        for q in EXPORT_QUANTILES
    }


# -- Prometheus text exposition ----------------------------------------------


def sanitize_metric_name(name: str, *, prefix: str = "repro") -> str:
    """Slash-path metric name -> Prometheus-legal ``prefix_a_b_c``."""
    cleaned = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    full = f"{prefix}_{cleaned}" if prefix else cleaned
    if full and full[0].isdigit():
        full = "_" + full
    return full


#: First matching substring wins; checked in order, so put the most
#: specific pattern first.  Fallback is a generic per-kind line — every
#: instrument gets *some* ``# HELP``, Prometheus hygiene over prose.
_HELP_RULES: Tuple[Tuple[str, str], ...] = (
    ("e2e_us", "End-to-end latency from ingress to delta emission, microseconds."),
    ("ingest_to_apply_us", "Latency from parent-side ingress to worker-side apply, microseconds."),
    ("batch_us", "Per-shard batch application time, microseconds."),
    ("encode_us", "Transport frame encode time per batch, microseconds."),
    ("decode_us", "Transport frame decode time per response, microseconds."),
    ("bytes_out", "Bytes sent to shard workers over the shm transport."),
    ("bytes_in", "Bytes received from shard workers over the shm transport."),
    ("request_bytes", "Request ring occupancy after the last send, bytes."),
    ("response_bytes", "Response ring occupancy after the last receive, bytes."),
    ("reconstruction_us", "Hotspot partition reconstruction duration, microseconds."),
    ("reconstructions", "Hotspot partition reconstructions completed."),
    ("promoted_group_size", "Size of groups at hotspot promotion."),
    ("promotions", "Groups promoted to hotspot status."),
    ("demotions", "Groups demoted from hotspot status."),
    ("hotspot_items_added", "Items added to hotspot groups."),
    ("hotspot_items_removed", "Items removed from hotspot groups."),
    ("hotspot_coverage", "Fraction of items covered by hotspot groups."),
    ("headroom", "Invariant I2 slack: (1+eps)*tau + 2/alpha minus live groups."),
    ("groups", "Live partition groups (hotspot + scattered)."),
    ("tau", "Current stabbing number tau of the plane's intervals."),
    ("spans_dropped", "Tracing spans lost to ring-buffer overflow."),
    ("frame_errors", "Malformed frames or worker ERROR reports seen on the shm transport."),
    ("ring_timeouts", "Shm ring sends or response waits that hit their deadline."),
    ("crc_retries", "Re-reads of a response frame whose bytes did not validate at first."),
    ("wal_torn_tail", "Recoveries that found and sealed a torn final WAL record."),
    ("rows_struck", "Hit-list rows the batch fix-up removed: not yet, or no longer, visible to their event."),
    ("queries_struck", "Delta entries the batch fix-up removed: queries not yet, or no longer, subscribed at their event."),
    ("queue_depth", "Pending events in the ingress micro-batcher."),
    ("batch_size", "Events per flushed micro-batch."),
    ("batches", "Micro-batches flushed."),
    ("events_submitted", "Events accepted by submit()."),
    ("events_applied", "Events applied to shards."),
    ("results_produced", "Delta rows delivered to subscriptions."),
    ("query_events", "Subscription changes processed."),
    ("events", "Events routed to this shard."),
)


def metric_help(name: str, kind: str = "metric") -> str:
    """One-line ``# HELP`` text for a metric name (original slash-path
    form, not the sanitized one)."""
    for pattern, text in _HELP_RULES:
        if pattern in name:
            return text
    return f"Repro runtime {kind} {name}."


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    snapshot: Dict[str, Dict[str, Any]], *, prefix: str = "repro"
) -> str:
    """Registry snapshot -> Prometheus text exposition format.

    Counters become ``<name>_total``; histograms become summaries
    (``{quantile="0.5"}`` sample lines from the interpolated estimator,
    plus ``_sum``/``_count``).  Every instrument gets ``# HELP`` and
    ``# TYPE`` lines, in that order, as the exposition format specifies.
    """
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = sanitize_metric_name(name, prefix=prefix)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# HELP {metric} {metric_help(name, 'counter')}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(float(value))}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = sanitize_metric_name(name, prefix=prefix)
        lines.append(f"# HELP {metric} {metric_help(name, 'gauge')}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(float(value))}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = sanitize_metric_name(name, prefix=prefix)
        lines.append(f"# HELP {metric} {metric_help(name, 'histogram')}")
        lines.append(f"# TYPE {metric} summary")
        for label, estimate in sorted(estimate_quantiles(hist).items()):
            q = int(label[1:]) / 100.0
            lines.append(f'{metric}{{quantile="{q:g}"}} {_format_value(estimate)}')
        lines.append(f"{metric}_sum {_format_value(float(hist['sum']))}")
        lines.append(f"{metric}_count {_format_value(float(hist['count']))}")
    return "\n".join(lines) + "\n" if lines else ""


def render_snapshot(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Aligned human-readable rendering of a registry snapshot dict — a
    live ``MetricsRegistry.snapshot()`` or a parsed JSONL record — with
    interpolated p50/p95/p99 (:func:`estimate_quantiles`)."""
    lines: List[str] = []
    counters = sorted(snapshot.get("counters", {}).items())
    gauges = sorted(snapshot.get("gauges", {}).items())
    histograms = sorted(snapshot.get("histograms", {}).items())
    if counters:
        lines.append("counters:")
        width = max(len(name) for name, __ in counters)
        for name, value in counters:
            lines.append(f"  {name:<{width}}  {int(value):>12,}")
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name, __ in gauges)
        for name, value in gauges:
            lines.append(f"  {name:<{width}}  {float(value):>12,.1f}")
    if histograms:
        lines.append("histograms:")
        width = max(len(name) for name, __ in histograms)
        for name, hist in histograms:
            quantiles = estimate_quantiles(hist)
            lines.append(
                f"  {name:<{width}}  count={hist['count']:<8,}"
                f" mean={hist['mean']:<10.1f}"
                f" p50={quantiles['p50']:<10.1f}"
                f" p95={quantiles['p95']:<10.1f}"
                f" p99={quantiles['p99']:<10.1f}"
                f" max={hist['max']:,.0f}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"


# -- JSONL snapshot stream ---------------------------------------------------


class SnapshotWriter:
    """Appends periodic registry snapshots to a JSONL file.

    One JSON object per line: ``{"seq": k, "uptime_us": ..., "metrics":
    {...}}`` plus any extras the caller attaches (the serve loop adds
    hotspot headroom samples and span-drop counts).  ``uptime_us`` is
    monotonic-clock process uptime since the writer was created —
    forensics only, nothing replays from it.

    ``max_bytes`` bounds disk for long serve runs by size-based rotation:
    when an append pushes the file past the limit, it is renamed to
    ``<path>.1`` (replacing any previous rotation) and writing restarts
    on a fresh file — at most ``~2 * max_bytes`` on disk, with ``seq``
    still strictly increasing across the pair.  :func:`read_snapshots`
    reads the rotated file first, so consumers see one ordered stream.
    """

    __slots__ = ("path", "max_bytes", "rotations", "_seq", "_start_ns")

    def __init__(self, path: str, *, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.path = path
        self.max_bytes = max_bytes
        self.rotations = 0
        self._seq = 0
        self._start_ns = time.perf_counter_ns()
        # Truncate: a snapshot stream documents one serve run.
        with open(self.path, "w", encoding="utf-8"):
            pass

    def write(
        self,
        snapshot: Dict[str, Dict[str, Any]],
        extra: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Append one record holding ``snapshot`` (a
        :meth:`MetricsRegistry.snapshot` dict)."""
        record: Dict[str, Any] = {
            "seq": self._seq,
            "uptime_us": (time.perf_counter_ns() - self._start_ns) // 1_000,
            "metrics": snapshot,
        }
        if extra:
            record.update(extra)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            size = handle.tell()
        self._seq += 1
        if self.max_bytes is not None and size > self.max_bytes:
            # Rotate whole records only — the freshly written line rolls
            # into ``.1`` with everything before it.
            os.replace(self.path, self.path + ".1")
            self.rotations += 1
            with open(self.path, "w", encoding="utf-8"):
                pass
        return record


def read_snapshots(path: str) -> List[Dict[str, Any]]:
    """Parse every record of a JSONL snapshot stream.

    Reads the writer's rotation pair: ``<path>.1`` (older records, if a
    rotation happened) followed by ``<path>`` itself, yielding one
    seq-ordered stream.
    """
    records: List[Dict[str, Any]] = []
    for candidate in (path + ".1", path):
        if candidate.endswith(".1") and not os.path.exists(candidate):
            continue
        with open(candidate, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{candidate}:{line_no}: invalid snapshot record: {exc}"
                    )
    return records


def latest_snapshot(path: str) -> Dict[str, Any]:
    """The last record of a JSONL snapshot stream (highest ``seq``)."""
    records = read_snapshots(path)
    if not records:
        raise ValueError(f"{path}: no snapshots recorded")
    return max(records, key=lambda record: int(record.get("seq", -1)))


# -- HTTP endpoint -----------------------------------------------------------


class MetricsServer:
    """Serves the last published metrics over HTTP on a background thread.

    Routes: ``/metrics`` (Prometheus text), ``/metrics.json`` (the raw
    snapshot dict), and — when the last publish carried spans —
    ``/trace.json`` (Chrome trace of those spans).  Binding ``port=0``
    picks an ephemeral port (see :attr:`port`).

    The HTTP thread never touches a registry or a tracer: the data path
    hands it copies through :meth:`publish`, and every response renders
    the last one.  ``serve`` publishes every ``--report-every`` events,
    so the endpoint is at most one interval stale.  Each response carries
    the publish's ``seq`` and ``uptime_us`` as ``X-Repro-Seq`` and
    ``X-Repro-Uptime-Us`` headers, so a poller can tell a fresh publish
    from the same one fetched twice.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        tracer: Optional[RingTracer] = None,
    ) -> None:
        self._start_ns = time.perf_counter_ns()
        self._seq = -1
        # (seq, uptime_us, snapshot, spans): replaced whole by publish(),
        # read whole by the handler — one reference store, atomic under
        # the GIL, is the only thing the two threads share.
        self._published: Tuple[int, int, Dict[str, Any], Optional[TraceExport]]
        self.publish(
            registry.snapshot(),
            tracer.export_copy() if tracer is not None else None,
        )
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:
                seq, uptime_us, snapshot, spans = server._published
                if self.path in ("/", "/metrics"):
                    body = render_prometheus(snapshot).encode()
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path == "/metrics.json":
                    body = json.dumps(snapshot, sort_keys=True).encode()
                    content_type = "application/json"
                elif self.path == "/trace.json" and spans is not None:
                    body = json.dumps(chrome_trace_of_export(spans)).encode()
                    content_type = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.send_header("X-Repro-Seq", str(seq))
                self.send_header("X-Repro-Uptime-Us", str(uptime_us))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: Any) -> None:
                pass  # keep the serve console clean

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()

    def publish(
        self,
        snapshot: Dict[str, Dict[str, Any]],
        spans: Optional[TraceExport] = None,
    ) -> None:
        """Serve ``snapshot`` (a :meth:`MetricsRegistry.snapshot` dict) and
        ``spans`` (a :meth:`RingTracer.export_copy`; ``None`` answers
        ``/trace.json`` with 404) from now on.  Neither may be mutated
        afterwards."""
        self._seq += 1
        uptime_us = (time.perf_counter_ns() - self._start_ns) // 1_000
        self._published = (self._seq, uptime_us, snapshot, spans)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
