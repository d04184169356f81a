"""`repro top`: a refreshing terminal dashboard over the metrics stream.

Pure functions over snapshot records plus one small refresh loop —
nothing here talks to a pipeline directly.  A *record* is one entry of
the JSONL snapshot stream (``{"seq", "uptime_us", "metrics": {...}}``);
the URL fetcher wraps a ``/metrics.json`` response and its publish
headers in the same shape so both sources feed the same renderer.
Rates (throughput, churn) come from differencing two consecutive
records, so the first frame of a session shows absolutes only.

Shared with ``repro stats --watch``: both verbs loop
:func:`watch` over a fetcher; ``top`` renders :func:`render_dashboard`,
``stats --watch`` renders the classic full snapshot.

Clocking: the loop and the rate math use ``time.monotonic`` only (this
package is on the RA001 determinism plane — wall clocks are banned, and
a dashboard needs durations, not dates).
"""

from __future__ import annotations

import json
import re
import time
import urllib.request
from typing import Any, Callable, Dict, List, Optional

from repro.obs.export import estimate_quantiles, latest_snapshot

__all__ = [
    "fetch_record_from_jsonl",
    "fetch_record_from_url",
    "shard_indices",
    "render_dashboard",
    "watch",
    "CLEAR_SCREEN",
]

#: ANSI: clear screen + home cursor, the classic ``top`` refresh.
CLEAR_SCREEN = "\x1b[2J\x1b[H"

_SHARD_PATTERNS = (
    re.compile(r"^shard/(\d+)/"),
    re.compile(r"^obs/shard/(\d+)/"),
    re.compile(r"^transport/ring/(\d+)/"),
)


def fetch_record_from_jsonl(path: str) -> Dict[str, Any]:
    """The newest record of a snapshot stream (rotation-aware)."""
    return latest_snapshot(path)


def fetch_record_from_url(url: str, *, timeout: float = 5.0) -> Dict[str, Any]:
    """The last published snapshot of a :class:`MetricsServer`, as a record.

    Accepts the server base URL or the ``/metrics.json`` route itself.
    ``seq`` and ``uptime_us`` come from the response headers: they stamp
    the publish, not the fetch, so two fetches of one publish read the
    same ``uptime_us`` and the dashboard shows no rate rather than 0.
    """
    target = url.rstrip("/")
    if not target.endswith("/metrics.json"):
        target += "/metrics.json"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        snapshot = json.loads(response.read().decode("utf-8"))
        headers = response.headers
    record: Dict[str, Any] = {"metrics": snapshot}
    for key, header in (("seq", "X-Repro-Seq"), ("uptime_us", "X-Repro-Uptime-Us")):
        value = headers.get(header)
        if value is not None:
            record[key] = int(value)
    return record


def shard_indices(metrics: Dict[str, Any]) -> List[int]:
    """Every shard index any instrument name mentions, ascending."""
    found = set()
    for section in ("counters", "gauges", "histograms"):
        for name in metrics.get(section, {}):
            for pattern in _SHARD_PATTERNS:
                match = pattern.match(name)
                if match:
                    found.add(int(match.group(1)))
    return sorted(found)


def _counter(metrics: Dict[str, Any], name: str) -> int:
    return int(metrics.get("counters", {}).get(name, 0))


def _gauge(metrics: Dict[str, Any], name: str) -> Optional[float]:
    value = metrics.get("gauges", {}).get(name)
    return None if value is None else float(value)


def _headroom(metrics: Dict[str, Any], plane: str) -> Optional[float]:
    """A plane's I2 headroom; ``None`` for a plane that holds no query
    (no group), whose 2/alpha budget says nothing."""
    if _gauge(metrics, f"{plane}/groups") == 0:
        return None
    return _gauge(metrics, f"{plane}/headroom")


def _histogram(metrics: Dict[str, Any], name: str) -> Optional[Dict[str, Any]]:
    hist = metrics.get("histograms", {}).get(name)
    return hist if hist and int(hist.get("count", 0)) > 0 else None


def _sum_counters(metrics: Dict[str, Any], suffix: str) -> int:
    """One counter summed over its parent copy and every shard's."""
    return sum(
        int(value)
        for name, value in metrics.get("counters", {}).items()
        if name.endswith(suffix)
    )


def _rate(
    current: int, previous: Optional[int], elapsed_s: Optional[float]
) -> Optional[float]:
    if previous is None or elapsed_s is None or elapsed_s <= 0:
        return None
    return (current - previous) / elapsed_s


def _elapsed_seconds(
    record: Dict[str, Any], previous: Optional[Dict[str, Any]]
) -> Optional[float]:
    """Wall-free elapsed time between two records: prefer the stream's
    ``uptime_us``, fall back to fetch-time stamps the watch loop adds.
    ``None`` when the first clock both records carry did not advance —
    the same snapshot read twice is no interval to take a rate over."""
    if previous is None:
        return None
    for key, scale in (("uptime_us", 1e6), ("_fetched_at_ns", 1e9)):
        now, then = record.get(key), previous.get(key)
        if now is not None and then is not None:
            return (float(now) - float(then)) / scale if now > then else None
    return None


def _fmt(value: Optional[float], *, digits: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value:,.{digits}f}"


def _p95_cell(metrics: Dict[str, Any], name: str) -> str:
    hist = _histogram(metrics, name)
    if hist is None:
        return "-"
    quantiles = estimate_quantiles(hist)
    return f"{quantiles['p95']:,.0f}"


def render_dashboard(
    record: Dict[str, Any], previous: Optional[Dict[str, Any]] = None
) -> str:
    """One dashboard frame: throughput, e2e latency, churn, faults, shard
    table."""
    metrics: Dict[str, Any] = record.get("metrics", {})
    elapsed = _elapsed_seconds(record, previous)
    prev_metrics: Dict[str, Any] = (previous or {}).get("metrics", {})
    lines: List[str] = []

    header = "repro top"
    if "seq" in record:
        header += f" — snapshot #{record['seq']}"
    if "uptime_us" in record:
        header += f" — uptime {float(record['uptime_us']) / 1e6:,.1f}s"
    lines.append(header)

    applied = _counter(metrics, "pipeline/events_applied")
    results = _counter(metrics, "pipeline/results_produced")
    throughput = _rate(
        applied,
        _counter(prev_metrics, "pipeline/events_applied") if previous else None,
        elapsed,
    )
    lines.append(
        f"throughput: {_fmt(throughput)} ev/s   "
        f"applied {applied:,}   results {results:,}   "
        f"batches {_counter(metrics, 'pipeline/batches'):,}"
    )

    e2e = _histogram(metrics, "pipeline/e2e_us")
    if e2e is not None:
        quantiles = estimate_quantiles(e2e)
        lines.append(
            "e2e latency (us): "
            f"p50 {quantiles['p50']:,.1f}  p95 {quantiles['p95']:,.1f}  "
            f"p99 {quantiles['p99']:,.1f}  max {float(e2e['max']):,.0f}  "
            f"(n={int(e2e['count']):,})"
        )
    else:
        lines.append("e2e latency (us): (no samples yet)")

    promotions = _sum_counters(metrics, "/runtime/hotspot_promotions")
    demotions = _sum_counters(metrics, "/runtime/hotspot_demotions")
    churn_rate = _rate(
        promotions + demotions,
        (
            _sum_counters(prev_metrics, "/runtime/hotspot_promotions")
            + _sum_counters(prev_metrics, "/runtime/hotspot_demotions")
        )
        if previous
        else None,
        elapsed,
    )
    lines.append(
        f"hotspot churn: {promotions:,} promotions  {demotions:,} demotions"
        f"   rate {_fmt(churn_rate)}/s"
    )

    # Parent-side and worker-side (``shard/<i>/``) frame errors sum here.
    lines.append(
        f"faults: frame errors {_sum_counters(metrics, 'transport/frame_errors'):,}"
        f"   ring timeouts {_counter(metrics, 'transport/ring_timeouts'):,}"
        f"   torn WAL tails {_counter(metrics, 'durability/wal_torn_tail_total'):,}"
        f"   crc retries {_counter(metrics, 'transport/crc_retries'):,}"
    )

    indices = shard_indices(metrics)
    if indices:
        lines.append("shards:")
        lines.append(
            "  shard  events      lag p95    ring rq/rs      headroom b/s"
        )
        for index in indices:
            events = _counter(metrics, f"shard/{index}/events")
            # Worker-side apply lag (merged over the shm telemetry path);
            # inline mode has no worker registry, hence "-".
            lag_cell = _p95_cell(
                metrics, f"shard/{index}/worker/e2e/ingest_to_apply_us"
            )
            ring_rq = _gauge(metrics, f"transport/ring/{index}/request_bytes")
            ring_rs = _gauge(metrics, f"transport/ring/{index}/response_bytes")
            ring_cell = (
                f"{ring_rq:,.0f}/{ring_rs:,.0f}"
                if ring_rq is not None and ring_rs is not None
                else "-"
            )
            band = _headroom(metrics, f"obs/shard/{index}/band")
            select = _headroom(metrics, f"obs/shard/{index}/select")
            headroom_cell = (
                f"{_fmt(band)}/{_fmt(select)}"
                if band is not None or select is not None
                else "-"
            )
            lines.append(
                f"  {index:<5}  {events:<10,}  {lag_cell:<9}"
                f"  {ring_cell:<14}  {headroom_cell}"
            )
    dropped = record.get("spans_dropped")
    if dropped:
        lines.append(f"warning: {int(dropped):,} tracing spans dropped")
    return "\n".join(lines)


def watch(
    fetch: Callable[[], Dict[str, Any]],
    render: Callable[[Dict[str, Any], Optional[Dict[str, Any]]], str],
    *,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    out: Callable[[str], None] = print,
    clear: bool = True,
) -> int:
    """Fetch → render → sleep, until ``iterations`` frames (None = forever,
    stop with Ctrl-C).  Returns the number of frames rendered.  A fetch
    error renders as a one-line frame rather than killing the loop — the
    stream may simply not have its first record yet.
    """
    frames = 0
    previous: Optional[Dict[str, Any]] = None
    while iterations is None or frames < iterations:
        try:
            try:
                record = fetch()
                record["_fetched_at_ns"] = time.monotonic_ns()
            except (OSError, ValueError) as exc:
                out(f"(waiting for metrics: {exc})")
                record = None
            if record is not None:
                frame = render(record, previous)
                out(CLEAR_SCREEN + frame if clear else frame)
                previous = record
        except BrokenPipeError:  # downstream pager/head closed — clean stop
            break
        frames += 1
        if iterations is not None and frames >= iterations:
            break
        try:
            time.sleep(max(0.0, interval))
        except KeyboardInterrupt:  # pragma: no cover — interactive exit
            break
    return frames
