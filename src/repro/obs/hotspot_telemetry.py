"""Hotspot telemetry: live visibility into the paper's I1-I3 behavior.

Three views, one per question an operator asks of the tracker:

* **churn** — :class:`HotspotChurnTelemetry` counts promotions, demotions
  and hot-item boundary traffic once per tracker callback, into
  ``shard/<i>/runtime/hotspot_*`` counters a shard's two planes share (a
  thrashing tracker means alpha is mis-tuned for the workload), and the
  size of each promoted group per plane;
* **reconstruction cost** — :class:`ReconstructionTelemetry` pairs the
  partition's rebuild-started/rebuilt callbacks into a duration histogram
  and a ``partition.rebuild`` span, so lazy/refined reconstruction
  stalls show up in traces and percentiles;
* **headroom** — :func:`hotspot_headroom` samples the invariant I2 slack:
  how far the maintained group count sits below its
  ``(1 + eps) * tau + 2/alpha`` budget.  Sampling recomputes ``tau`` by a
  full greedy sweep (O(n log n)), so it runs on the reporting interval,
  never per event.

:class:`HotspotTelemetry` bundles all three behind one ``attach(tracker,
plane)`` call; the runtime attaches it per shard plane
(``shard/0/band``, ``shard/0/select``, ...).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, ContextManager, List, Optional, Sequence, Tuple

from repro.core.hotspot_tracker import HotspotTracker
from repro.core.partition_base import DynamicStabbingPartitionBase, StabbingGroupView
from repro.core.stabbing import stabbing_number
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.runtime.metrics import MetricsRegistry

__all__ = [
    "HeadroomSample",
    "HotspotChurnTelemetry",
    "ReconstructionTelemetry",
    "HotspotTelemetry",
    "hotspot_headroom",
]


@dataclass(frozen=True, slots=True)
class HeadroomSample:
    """One point-in-time reading of the invariant I2 budget for a plane."""

    plane: str
    items: int
    groups: int
    hot_groups: int
    scattered_groups: int
    tau: int
    bound: float  # (1 + eps) * tau + 2 / alpha
    headroom: float  # bound - groups (>= 0 while I2 holds)
    coverage: float  # fraction of items in hotspot groups


class HotspotChurnTelemetry:
    """A :class:`HotspotListener` recording boundary churn.

    ``plane`` is ``<scope>/<name>`` (``shard/3/band``).  The four churn
    counters are the scope's, ``<scope>/runtime/hotspot_{promotions,
    demotions,items_added,items_removed}``, so the listeners of one
    shard's two planes increment the same counters; the promoted-group
    size is the plane's own ``obs/<plane>/promoted_group_size``.
    """

    __slots__ = (
        "_promotions",
        "_demotions",
        "_hot_items_added",
        "_hot_items_removed",
        "_promoted_size",
    )

    def __init__(self, registry: MetricsRegistry, plane: str) -> None:
        prefix = f"{plane.rpartition('/')[0]}/runtime/hotspot"
        self._promotions = registry.counter(f"{prefix}_promotions")
        self._demotions = registry.counter(f"{prefix}_demotions")
        self._hot_items_added = registry.counter(f"{prefix}_items_added")
        self._hot_items_removed = registry.counter(f"{prefix}_items_removed")
        self._promoted_size = registry.histogram(f"obs/{plane}/promoted_group_size")

    def on_promoted(self, group: Any) -> None:
        self._promotions.inc()
        self._promoted_size.observe(group.size)

    def on_demoted(self, group: Any) -> None:
        self._demotions.inc()

    def on_hot_items_added(self, added: Sequence[Any]) -> None:
        self._hot_items_added.inc(len(added))

    def on_hot_items_removed(self, removed: Sequence[Any]) -> None:
        self._hot_items_removed.inc(len(removed))


class ReconstructionTelemetry:
    """A :class:`PartitionListener` timing reconstruction stages.

    The partition fires ``on_rebuild_started`` just before it recomputes
    the canonical partition and ``on_rebuilt`` once the new groups are
    installed; the window between the two is the full reconstruction cost
    (sweep + install + listener resync happens after, by callback order).
    Durations land in an ``obs/<plane>/reconstruction_us`` histogram and,
    when a recording tracer is attached, a ``partition.rebuild`` span.
    """

    __slots__ = ("_durations", "_count", "_tracer", "_plane", "_started_ns", "_span")

    def __init__(
        self, registry: MetricsRegistry, plane: str, tracer: Tracer = NULL_TRACER
    ) -> None:
        prefix = f"obs/{plane}"
        self._durations = registry.histogram(f"{prefix}/reconstruction_us")
        self._count = registry.counter(f"{prefix}/reconstructions")
        self._tracer = tracer
        self._plane = plane
        self._started_ns: Optional[int] = None
        self._span: Optional[ContextManager[Any]] = None

    # Per-item callbacks are irrelevant here.

    def on_group_created(self, group: StabbingGroupView[Any]) -> None:
        pass

    def on_group_destroyed(self, group: StabbingGroupView[Any]) -> None:
        pass

    def on_item_added(self, group: StabbingGroupView[Any], item: Any) -> None:
        pass

    def on_item_removed(self, group: StabbingGroupView[Any], item: Any) -> None:
        pass

    def on_rebuild_started(self, partition: DynamicStabbingPartitionBase[Any]) -> None:
        # Monotonic clock; instrumentation only (see MONOTONIC_CLOCK_SCOPE).
        self._started_ns = time.perf_counter_ns()
        span = self._tracer.span(
            "partition.rebuild", plane=self._plane, items=partition.total_items()
        )
        span.__enter__()
        self._span = span

    def on_rebuilt(self, partition: DynamicStabbingPartitionBase[Any]) -> None:
        if self._span is not None:
            self._span.__exit__(None, None, None)
            self._span = None
        if self._started_ns is None:
            return  # rebuild without a start marker (e.g. initial install)
        elapsed_us = (time.perf_counter_ns() - self._started_ns) / 1_000.0
        self._started_ns = None
        self._durations.observe(elapsed_us)
        self._count.inc()


def hotspot_headroom(
    tracker: HotspotTracker[Any], *, plane: str = ""
) -> HeadroomSample:
    """Sample the I2 budget of one tracker (full tau sweep; O(n log n))."""
    hot = tracker.hotspot_groups
    scattered = tracker.scattered
    all_items: List[Any] = [item for group in hot for item in group]
    for group in scattered.groups:
        all_items.extend(group)
    tau = stabbing_number(all_items, tracker.interval_of)
    epsilon = getattr(scattered, "epsilon", 1.0)
    hot_groups = len(hot)
    scattered_groups = len(scattered)
    groups = hot_groups + scattered_groups
    bound = (1.0 + epsilon) * tau + 2.0 / tracker.alpha
    return HeadroomSample(
        plane=plane,
        items=len(all_items),
        groups=groups,
        hot_groups=hot_groups,
        scattered_groups=scattered_groups,
        tau=tau,
        bound=bound,
        headroom=bound - groups,
        coverage=tracker.hotspot_coverage,
    )


class HotspotTelemetry:
    """One attach point per shard: listeners plus on-demand headroom gauges.

    ``attach`` wires churn and reconstruction listeners into a tracker's
    planes; ``sample`` recomputes each attached plane's headroom and
    publishes it as ``obs/<plane>/{groups,tau,headroom,hotspot_coverage}``
    gauges (called on the reporting interval — the sweep is O(n log n)).
    """

    __slots__ = ("registry", "tracer", "_planes")

    def __init__(
        self, registry: MetricsRegistry, tracer: Tracer = NULL_TRACER
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self._planes: List[Tuple[str, HotspotTracker[Any]]] = []

    def attach(self, tracker: HotspotTracker[Any], plane: str) -> None:
        tracker.add_listener(HotspotChurnTelemetry(self.registry, plane))
        tracker.scattered.add_listener(
            ReconstructionTelemetry(self.registry, plane, self.tracer)
        )
        self._planes.append((plane, tracker))

    def sample(self) -> List[HeadroomSample]:
        samples: List[HeadroomSample] = []
        for plane, tracker in self._planes:
            sample = hotspot_headroom(tracker, plane=plane)
            prefix = f"obs/{plane}"
            self.registry.gauge(f"{prefix}/groups").set(sample.groups)
            self.registry.gauge(f"{prefix}/tau").set(sample.tau)
            self.registry.gauge(f"{prefix}/headroom").set(sample.headroom)
            self.registry.gauge(f"{prefix}/hotspot_coverage").set(sample.coverage)
            samples.append(sample)
        return samples
