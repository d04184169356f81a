"""Cheap runtime metrics: counters, gauges and log-bucketed histograms.

The pipeline instruments its hot path, so every primitive here is a few
arithmetic operations with no lock.  Histograms bucket observations by
powers of two, which is precise enough for the latency/batch-size
distributions the runtime reports and keeps ``observe`` allocation-free.

Single writer, not thread-safe: a registry and its instruments belong to
the one thread that runs the data path (the main thread of ``inline`` and
of the ``process-shm`` parent, or the one thread of a shard worker
process).  A reader on another thread gets a *published copy* instead —
``serve`` hands :meth:`MetricsRegistry.snapshot` to
:meth:`repro.obs.export.MetricsServer.publish` every ``--report-every``
events — and never touches the live instruments.

``MetricsRegistry.snapshot()`` returns a plain nested dict (JSON-friendly);
``repro.obs.export.render_snapshot`` formats it as aligned text for the CLI.
A histogram snapshot carries its raw buckets and no quantile:
``repro.obs.export.estimate_quantile`` is the one estimator every surface
prints.

One metric namespace: an instrument gets its final name where it is
created.  Whatever belongs to one shard is named ``shard/<i>/...`` (or
``obs/shard/<i>/...``) by the shard that owns it, in every mode, so a
worker's registry ships to the parent under the names the parent keeps.
"""

from __future__ import annotations

import collections
from typing import Any, Dict, List, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "N_HISTOGRAM_BUCKETS",
    "bucket_index",
    "histogram_delta",
]

#: Number of log2 buckets every histogram carries (bucket 63 saturates, so
#: observations up to 2**62 land in a bounded bucket).
N_HISTOGRAM_BUCKETS = 64


def bucket_index(value: float) -> int:
    """The log2 bucket an observation falls into.

    Bucket 0 holds ``[0, 1)`` (negatives clamp to it); bucket ``i >= 1``
    holds ``[2**(i-1), 2**i)``; the last bucket saturates.  Shared with
    the exposition layer (``repro.obs.export.bucket_bounds`` is its
    inverse) so estimated quantiles agree with how ``observe`` binned.
    """
    index = max(0, int(value).bit_length()) if value >= 1 else 0
    return min(index, N_HISTOGRAM_BUCKETS - 1)


def histogram_delta(values: List[float]) -> Dict[str, Any]:
    """Non-empty, non-negative ``values`` as :meth:`Histogram.merge_delta`
    arguments — what that many ``observe`` calls would have recorded, in
    one fold instead of one per value.

    Binned as :func:`bucket_index` bins, without a call per value: for
    ``v >= 0`` the bucket is ``int(v).bit_length()``, clamped to the
    saturating last bucket.
    """
    buckets = collections.Counter([int(value).bit_length() for value in values])
    top = N_HISTOGRAM_BUCKETS - 1
    if max(buckets) > top:
        for index in [index for index in buckets if index > top]:
            buckets[top] += buckets.pop(index)
    return {
        "count": len(values),
        "total": sum(values),
        "min_value": min(values),
        "max_value": max(values),
        "buckets": list(buckets.items()),
    }


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, n: int = 1) -> None:
        self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (e.g. current queue depth)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Log2-bucketed histogram of non-negative observations.

    Bucket ``i`` counts observations in ``[2**(i-1), 2**i)`` (bucket 0
    holds ``[0, 1)``), so a quantile read from the buckets is exact to
    within a factor of two — plenty for "did p99 latency explode"
    dashboards (``repro.obs.export.estimate_quantile``).
    """

    __slots__ = ("_buckets", "_count", "_sum", "_min", "_max")

    N_BUCKETS = N_HISTOGRAM_BUCKETS

    def __init__(self) -> None:
        self._buckets: List[int] = [0] * self.N_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            value = 0.0
        self._buckets[bucket_index(value)] += 1
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def merge_delta(
        self,
        *,
        count: int,
        total: float,
        min_value: float,
        max_value: float,
        buckets: List[Tuple[int, int]],
    ) -> None:
        """Fold a remote histogram *delta* into this one.

        The shm-transport telemetry path ships worker-side histograms as
        bucket-wise deltas (``[index, added_count]`` pairs); merging is
        plain addition because log2 bucketing is identical in every
        process.  Every index must be below :data:`N_HISTOGRAM_BUCKETS`
        and the added counts must sum to ``count`` — the TELEMETRY decoder
        rejects a frame that breaks either, and :func:`histogram_delta`
        builds no other kind.  ``min_value``/``max_value`` describe the
        remote histogram's lifetime extremes, so they fold via min/max.  A
        zero-count delta is a no-op (its min/max are meaningless).
        """
        if count <= 0:
            return
        for index, added in buckets:
            self._buckets[index] += added
        self._count += count
        self._sum += total
        self._min = min(self._min, min_value)
        self._max = max(self._max, max_value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly state.  ``"buckets"`` lists the nonzero log2
        buckets as ``[index, count]`` pairs (ascending index) — the raw
        distribution the exposition layer's interpolated quantile
        estimator consumes (``repro.obs.export``)."""
        count = self._count
        if count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "buckets": []}
        return {
            "count": count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self._sum / count,
            "buckets": [[i, n] for i, n in enumerate(self._buckets) if n],
        }


class MetricsRegistry:
    """Named counters/gauges/histograms with a one-shot snapshot.

    Names are slash-separated paths (``pipeline/events_in``,
    ``shard/3/latency_us``); creation is idempotent so producers can call
    ``counter(name)`` on the hot path without pre-registration.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter()
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge()
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram()
        return self._histograms[name]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as a plain (JSON-serializable) dict, names sorted.
        Nothing in it aliases a live instrument, so it may be handed to
        another thread."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }
