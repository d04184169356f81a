"""Timing shims the traced pass puts around the program's public callables.

The program's own tracer has seven span names; the breakdown the ROADMAP
asks for needs about forty boundaries.  Until those spans exist inside
``src/`` (a later change), the benchmark records them from here: each
target in :data:`TARGETS` is a class or module attribute that
:class:`SpanShims` replaces with a timing wrapper and puts back in
``uninstall`` (call it from ``finally``).

A traced pass closes millions of spans, so a closed span is folded at once
into its name's ``SpanStat`` (count, total, self) instead of being kept as
a record.  **Self time** is the span's duration minus the time covered by
the spans opened inside it; self times over all names therefore sum to the
time covered by the outermost spans, and what is left of the traced wall is
``layers.unattributed_s``.

A target that no longer resolves is skipped with a warning and its metrics
read ``null`` -- a later PR may delete any of these names, and the benchmark
must still run.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``hook(args, kwargs, result)`` runs after the wrapped call returns.
Hook = Callable[[Tuple[Any, ...], Dict[str, Any], Any], None]


@dataclass
class SpanStat:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass(frozen=True)
class Target:
    """``span`` names the boundary (``<layer>.<what>``); ``module`` and
    ``attr`` locate the callable -- ``attr`` is ``Class.method`` or a
    module-level name as the *calling* module binds it."""

    span: str
    module: str
    attr: str


def _targets(module: str, prefix: str, **names: str) -> List[Target]:
    return [Target(f"{prefix}.{span}", module, attr) for span, attr in names.items()]


# The four processors a shard can hold, by plane.  Every shard's band plane
# sees every data event, which is what makes its batch calls a census of
# the fast-path runs (see layers.py).
_PROCESSORS = (
    ("band", "repro.operators.band_join", "BJSSI"),
    ("select", "repro.operators.select_join", "SJSSI"),
    ("band", "repro.operators.hotspot_processor", "HotspotBandJoinProcessor"),
    ("select", "repro.operators.hotspot_processor", "HotspotSelectJoinProcessor"),
)

TARGETS: List[Target] = [
    *_targets(
        "repro.runtime.pipeline", "pipeline",
        submit="EventPipeline.submit", flush="EventPipeline.flush",
        drain="EventPipeline.drain", subscribe="EventPipeline.subscribe",
        unsubscribe="EventPipeline.unsubscribe",
    ),
    *_targets("repro.runtime.batching", "batching", drain="MicroBatcher.drain"),
    *_targets(
        "repro.runtime.sharding", "sharding",
        route_event="ShardRouter.route_event", note_event="ShardRouter.note_event",
        apply_batch="Shard.apply_batch", apply="Shard.apply",
    ),
    # The pipeline binds these by ``from ... import``; patch its bindings.
    *_targets("repro.runtime.pipeline", "sharding", merge_deltas="merge_deltas"),
    *_targets("repro.runtime.pipeline", "transport", telemetry_merge="merge_telemetry"),
    *_targets(
        "repro.runtime.transport.frames", "transport",
        encode="encode_batch_frame", decode="decode_frame",
    ),
    *_targets(
        "repro.runtime.transport.shm", "transport", send="ShmRing.send", recv="ShmRing.recv"
    ),
    *_targets(
        "repro.fastpath.band", "fastpath",
        band_r="batch_probe_band_r", band_s="batch_probe_band_s",
    ),
    *_targets(
        "repro.fastpath.select", "fastpath",
        select_r="batch_probe_select_r", select_s="batch_probe_select_s",
    ),
    *(
        Target(f"operators.{plane}.{span}", module, f"{cls}.{method}")
        for plane, module, cls in _PROCESSORS
        for span, method in (
            ("process_batch", "process_r_batch"), ("process_batch", "process_s_batch"),
            ("process_event", "process_r"), ("process_event", "process_s"),
            ("add_query", "add_query"), ("remove_query", "remove_query"),
        )
    ),
    *_targets(
        "repro.core.hotspot_tracker", "core",
        tracker_insert="HotspotTracker.insert", tracker_delete="HotspotTracker.delete",
    ),
    *_targets("repro.dstruct.btree", "dstruct", flat_snapshot="BPlusTree.flat_snapshot"),
    *(
        Target(f"engine.table_{op}", "repro.engine.table", f"{cls}.{op}")
        for cls in ("TableR", "TableS")
        for op in ("insert", "delete")
    ),
    *_targets(
        "repro.durability.manager", "durability",
        log_event="DurabilityManager.log_event", sync="DurabilityManager.sync",
        checkpoint="DurabilityManager.checkpoint", encode="encode_event",
    ),
    *_targets("repro.durability.wal", "durability", wal_append="WriteAheadLog.append"),
]

_MISSING = object()


class SpanShims:
    """Installs the timing wrappers and owns what they record.

    Single-threaded by design: the benchmark drives the pipeline from one
    client thread and the shims go in after any worker process has forked,
    so workers run unpatched code.
    """

    def __init__(self, targets: Optional[List[Target]] = None) -> None:
        self.targets = list(TARGETS if targets is None else targets)
        self.stats: Dict[str, SpanStat] = {}
        self.missing: List[str] = []  # spans with at least one unresolved target
        self._stack: List[List[int]] = []  # child-time accumulators of open spans
        self._patched: List[Tuple[Any, str, Any]] = []  # (owner, name, original or _MISSING)

    # -- recording -----------------------------------------------------------

    def wrap(self, span: str, fn: Callable[..., Any], hook: Optional[Hook] = None) -> Callable[..., Any]:
        stat = self.stats.setdefault(span, SpanStat())
        stack = self._stack
        clock = perf_counter_ns

        def shim(*args: Any, **kwargs: Any) -> Any:
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.count += 1
                stat.total_ns += duration
                stat.self_ns += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(args, kwargs, result)
            return result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def _stats(self, spans: Tuple[str, ...]) -> Optional[List[SpanStat]]:
        """Stats of ``spans``; ``None`` if any of them lost a target."""
        if any(span in self.missing for span in spans):
            return None
        return [self.stats[span] for span in spans if span in self.stats]

    def self_s(self, *spans: str) -> Optional[float]:
        """Summed self time; ``None`` if any of the spans lost a target."""
        stats = self._stats(spans)
        return None if stats is None else sum(stat.self_ns for stat in stats) / 1e9

    def count(self, *spans: str) -> Optional[int]:
        stats = self._stats(spans)
        return None if stats is None else sum(stat.count for stat in stats)

    def attributed_s(self) -> float:
        return sum(stat.self_ns for stat in self.stats.values()) / 1e9

    # -- patching ------------------------------------------------------------

    def install(self, hooks: Optional[Dict[str, Hook]] = None) -> None:
        """Patch every resolvable target.  ``hooks`` maps a span name to a
        post-call observer (byte counts, cache hits)."""
        hooks = hooks or {}
        for target in self.targets:
            try:
                owner: Any = importlib.import_module(target.module)
                *path, name = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                print(
                    f"warning: shim target {target.module}:{target.attr} is gone; "
                    f"{target.span} metrics read null",
                    file=sys.stderr,
                )
                if target.span not in self.missing:
                    self.missing.append(target.span)
                continue
            # An inherited method is shadowed on the subclass and the shadow
            # deleted again on uninstall; the base class is never touched.
            own = vars(owner).get(name, _MISSING)
            shim: Any = self.wrap(target.span, original, hooks.get(target.span))
            if isinstance(own, staticmethod):
                shim = staticmethod(shim)
            self._patched.append((owner, name, own))
            setattr(owner, name, shim)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, own = self._patched.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
