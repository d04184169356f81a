"""One benchmark pass over one workload: set-up, timed section, checks.

Load model: **closed loop, one client thread**.  ``EventPipeline.submit`` is
synchronous -- the caller waits for whatever flush it triggers -- so the next
element is submitted only when the previous call has returned.

A pass (``run_pass``) does, in order:

1. generate the workload from the seed (``workloads.generate``) and
   ``gc.freeze()`` it, so no collection during a set-up walks the stream;
2. set up the pipeline that is timed, submit one untimed warm-up batch,
   ``gc.collect()`` + ``gc.freeze()``;
3. time a **fixed element count** from the first ``submit`` to the return of
   the final ``drain`` (with the shims of ``spans.py`` and the program's own
   tracer on when ``trace`` is set), close the pipeline and read the peak RSS;
4. take ``SETUP_SAMPLES`` samples (fewer under ``--scale``) of the set-up
   time -- each the mean of the workload's ``setups_per_sample`` back-to-back
   set-ups -- and report their median as ``setup_s``.  After step 3 on
   purpose: six pipelines built and freed before the timed one left its
   objects scattered over a fragmented heap, and the memory-bound
   ``band_probe`` then repeated within 6% instead of 3%;
5. check the outputs, one of two ways.  Given the record of a reference
   pass (the full protocol), hold the timed pipeline's end counts to it.
   Alone (the form the driver runs), replay the first ``CHECK_SHARE`` of the
   stream through a result-collecting pipeline *and* the unsharded
   ``ContinuousQuerySystem``, compare per-event deltas, and hold the timed
   pipeline to the counts that replay produced at the same boundary.

``run_reference`` is the reference pass: the same replay over the **whole**
stream, untimed.

Every reported time is in reference-host seconds (``hostspeed.py``): the
calibration kernel runs between batches of step 3 and around each sample of
step 4, outside the intervals themselves, and each interval is divided by
the host factor measured next to it.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import resource
import shutil
import statistics
import tempfile
from array import array
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.durability import DurabilityManager, recover_system
from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.engine.system import ContinuousQuerySystem
from repro.engine.table import STuple
from repro.obs.tracing import NULL_TRACER, RingTracer
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.pipeline import EventPipeline

import layers
import spans
import workloads
from hostspeed import REFERENCE_BACK_TO_BACK_S, HostSpeed

ROOT = Path(__file__).resolve().parents[2]
#: WAL directories live here (inside the checkout, git-ignored) and are
#: removed when the pass ends.
WORK_DIR = ROOT / ".bench_work"
#: Share of the timed stream a pass replays when it has no reference record.
CHECK_SHARE = 0.1
SETUP_SAMPLES = 5
#: Calibration calls before and after each set-up sample.
SETUP_CALIBRATIONS = 12
#: The timed loop calibrates at a batch boundary at most this often (the
#: kernel takes ~0.7 ms, so at most a tenth of the pass).
CALIBRATE_EVERY_NS = 7_000_000


@dataclass
class PassResult:
    workload: str
    seed: int
    trace: bool
    timed_elements: int
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Timed-section counts that must repeat exactly for a seed and scale.
    counts: Dict[str, int] = field(default_factory=dict)
    #: The cheap invariants at the end of the stream (since construction).
    end_counts: Dict[str, int] = field(default_factory=dict)
    #: Sample sizes, raw wall-clock values and shares a reader needs.
    info: Dict[str, Any] = field(default_factory=dict)
    ops_attempted: int = 0
    ops_failed: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.ops_failed += ops
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, what: str, got: Any, want: Any) -> None:
        self.ops_attempted += 1
        if got != want:
            self.fail(f"{what}: got {got!r}, expected {want!r}")


@dataclass
class Timeline:
    """What the timed loop records, all in ``perf_counter_ns`` (packed
    arrays: a list of a quarter million ints would show in ``peak_rss_mb``)."""

    latencies_ns: "array[int]" = field(default_factory=lambda: array("q"))
    #: When each latency ended (same order): places it among the calibrations.
    completed_ns: "array[int]" = field(default_factory=lambda: array("q"))
    #: (start, end) of every stretch of the loop between two calibrations.
    rounds: List[Tuple[int, int]] = field(default_factory=list)


# -- set-up -----------------------------------------------------------------


def build_pipeline(
    wl: workloads.Workload,
    work: Path,
    *,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Any = NULL_TRACER,
) -> Tuple[EventPipeline, Optional[Path]]:
    """The workload's pipeline, with a WAL in a fresh directory if durable."""
    spec = wl.spec
    metrics = metrics if metrics is not None else MetricsRegistry()
    durability = None
    wal_dir = None
    if spec.durable:
        wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=work))
        durability = DurabilityManager(
            wal_dir,
            fsync="batch",
            # About three checkpoints per run, none on the final element.
            checkpoint_every=max(1, int((wl.setup_elements + len(wl.stream)) / 3.5)),
            metrics=metrics,
            tracer=tracer,
        )
    pipeline = EventPipeline(
        num_shards=spec.num_shards,
        alpha=spec.alpha,
        batch_size=spec.batch_size,
        mode=spec.mode,
        metrics=metrics,
        durability=durability,
        tracer=tracer,
    )
    if durability is not None:
        try:
            durability.attach(pipeline)
        except BaseException:
            pipeline.close()
            raise
    return pipeline, wal_dir


def set_up(
    wl: workloads.Workload, work: Path, **kwargs: Any
) -> Tuple[EventPipeline, Optional[Path], float]:
    """Build, preload both tables, subscribe the population, drain.

    Rows go in before the subscriptions: the end state is the same and the
    preload does not pay for probes whose deltas nobody reads.
    """
    start = perf_counter()
    pipeline, wal_dir = build_pipeline(wl, work, **kwargs)
    try:
        for event in wl.preload:
            pipeline.submit(event)
        for event in wl.population:
            pipeline.submit(event)
        pipeline.drain()
    except BaseException:
        pipeline.close()
        raise
    return pipeline, wal_dir, perf_counter() - start


def sample_setup_s(wl: workloads.Workload, work: Path, count: int) -> Tuple[float, List[float]]:
    """``setup_s``: the median of ``count`` samples, and the samples.

    A sample is the mean of ``setups_per_sample`` back-to-back set-ups
    (closing a pipeline is not part of it; a 60 ms set-up is not judged on
    60 ms of a noisy host), over the host speed measured just before and
    just after.  The process is warm: the timed pipeline was set up first.
    """
    samples: List[float] = []
    for _ in range(count):
        speed = HostSpeed(REFERENCE_BACK_TO_BACK_S)
        speed.sample(SETUP_CALIBRATIONS)
        total = 0.0
        for _ in range(wl.spec.setups_per_sample):
            pipeline, _, seconds = set_up(wl, work)
            pipeline.close()
            total += seconds
        speed.sample(SETUP_CALIBRATIONS)
        samples.append(total / wl.spec.setups_per_sample / speed.factor)
    return statistics.median(samples), samples


# -- the timed loop -----------------------------------------------------------


def drive(
    pipeline: EventPipeline,
    elements: List[object],
    timeline: Timeline,
    speed: Optional[HostSpeed] = None,
) -> int:
    """Submit ``elements`` one at a time, then drain; returns how many
    ``submit`` calls refused their element.

    Latency of an element runs from the entry of its ``submit`` to the return
    of the call that completed its effect: for a data event the ``submit`` or
    ``drain`` that flushed its batch (seen through ``pipeline.pending``), for
    a query event its own ``submit`` (a barrier: it flushes what is pending).

    With ``speed`` the calibration kernel runs whenever nothing is pending
    and ``CALIBRATE_EVERY_NS`` have passed -- so never inside a latency --
    and closes one of ``timeline.rounds``.
    """
    submit = pipeline.submit
    clock = perf_counter_ns
    latency = timeline.latencies_ns.append
    completed = timeline.completed_ns.append
    waiting: Deque[int] = deque()  # entry stamps of data events still pending
    refused = 0
    round_start = clock()
    calibrate_at = round_start + CALIBRATE_EVERY_NS if speed is not None else math.inf
    for element in elements:
        entered = clock()
        accepted = submit(element)
        returned = clock()
        if not accepted:
            refused += 1
        if isinstance(element, QueryEvent):
            while waiting:
                latency(returned - waiting.popleft())
                completed(returned)
            latency(returned - entered)
            completed(returned)
        else:
            waiting.append(entered)
            for _ in range(len(waiting) - pipeline.pending):
                latency(returned - waiting.popleft())
                completed(returned)
        if returned >= calibrate_at and not waiting:
            timeline.rounds.append((round_start, clock()))
            # One sample, not several in a row: the first runs on the caches
            # the workload left behind and slows with the memory system as
            # the workload does; repeats run hot and track only the core
            # (band_probe then spread 13% instead of 6%).
            speed.sample()  # type: ignore[union-attr]
            round_start = clock()
            calibrate_at = round_start + CALIBRATE_EVERY_NS
    pipeline.drain()
    returned = clock()
    while waiting:
        latency(returned - waiting.popleft())
        completed(returned)
    timeline.rounds.append((round_start, returned))
    return refused


def boundary_counts(pipeline: EventPipeline) -> Dict[str, int]:
    """The cheap invariants a timed pass shares with a checking replay."""
    counter = pipeline.metrics.counter
    return {
        "result_rows": counter("pipeline/results_produced").value,
        "events_applied": counter("pipeline/events_applied").value,
        "coalesced_pairs": len(pipeline.cancelled_pairs),
        "subscriptions": pipeline.subscription_count,
    }


# -- checking ---------------------------------------------------------------


def normalise(deltas: Dict[Any, List[Any]]) -> Dict[int, Tuple[int, ...]]:
    """qid -> sorted ids of the matched rows (empty matches dropped)."""
    out: Dict[int, Tuple[int, ...]] = {}
    for query, rows in deltas.items():
        if rows:
            out[query.qid] = tuple(
                sorted(row.sid if isinstance(row, STuple) else row.rid for row in rows)
            )
    return out


def _row_id(event: DataEvent) -> int:
    return event.row.rid if event.relation == "R" else event.row.sid


def engine_replay(
    wl: workloads.Workload, prefix: List[object]
) -> Tuple[Dict[int, Dict[int, Tuple[int, ...]]], Dict[int, DataEvent], float]:
    """Replay through the unsharded engine; deltas and events keyed by the
    sequence number the pipeline gives the same data event, plus the wall."""
    spec = wl.spec
    engine = ContinuousQuerySystem(alpha=spec.alpha)
    for event in wl.preload:
        if event.relation == "R":
            engine.insert_r_row(event.row)
        else:
            engine.insert_s_row(event.row)
    for query_event in wl.population:
        engine.subscribe(query_event.query)
    deltas: Dict[int, Dict[int, Tuple[int, ...]]] = {}
    events: Dict[int, DataEvent] = {}
    seq = len(wl.preload)  # the pipeline numbers data events from its first
    start = perf_counter()
    for element in prefix:
        if isinstance(element, QueryEvent):
            if element.kind is EventKind.INSERT:
                engine.subscribe(element.query)
            else:
                engine.unsubscribe(element.query)
            continue
        assert isinstance(element, DataEvent)
        if element.kind is EventKind.DELETE:
            (engine.delete_r if element.relation == "R" else engine.delete_s)(element.row)
            found: Dict[Any, List[Any]] = {}
        elif element.relation == "R":
            found = engine.insert_r_row(element.row)
        else:
            found = engine.insert_s_row(element.row)
        deltas[seq] = normalise(found)
        events[seq] = element
        seq += 1
    return deltas, events, perf_counter() - start


def check_prefix(
    wl: workloads.Workload, n_prefix: int, work: Path, result: PassResult
) -> Dict[str, int]:
    """Replay ``stream[:n_prefix]`` through a collecting pipeline and the
    unsharded engine and compare per-event deltas under ``run_replay``'s
    contract: an insert+delete pair coalesced inside one batch was never
    visible, so the pair itself is exempt and the events between its two
    halves do not see that row.

    Returns the pipeline's boundary counts after the prefix; the unsharded
    side's speed goes to ``result.info["reference_events_per_s"]``.
    """
    prefix = wl.stream[:n_prefix]
    pipeline, _, _ = set_up(wl, work)
    try:
        collected = pipeline.run(prefix)
        counts = boundary_counts(pipeline)
        pairs = list(pipeline.cancelled_pairs)
    finally:
        pipeline.close()
    got = {seq: normalise(deltas) for seq, _, deltas in collected}
    del collected
    want, events, engine_wall = engine_replay(wl, prefix)
    result.info["reference_events_per_s"] = len(prefix) / engine_wall

    cancelled: Set[int] = set()
    hidden: Dict[int, Set[Tuple[str, int]]] = {}
    for insert_seq, delete_seq in pairs:
        cancelled.update((insert_seq, delete_seq))
        event = events[insert_seq]
        for seq in range(insert_seq + 1, delete_seq):
            hidden.setdefault(seq, set()).add((event.relation, _row_id(event)))
    for seq, expected in want.items():
        if seq in cancelled:
            continue
        result.ops_attempted += 1
        if seq in hidden:
            # Matches are rows of the *other* relation than the event's.
            other = "S" if events[seq].relation == "R" else "R"
            gone = {ident for relation, ident in hidden[seq] if relation == other}
            expected = {
                qid: kept
                for qid, ids in expected.items()
                if (kept := tuple(i for i in ids if i not in gone))
            }
        if got.get(seq, {}) != expected:
            result.fail(f"seq {seq}: pipeline {got.get(seq, {})!r} != engine {expected!r}")
    return counts


def check_recovery(wl: workloads.Workload, wal_dir: Path, result: PassResult) -> float:
    """Recover the timed run's WAL directory into a fresh system and hold
    it to the end state the generator predicts."""
    start = perf_counter()
    system, _ = recover_system(wal_dir)
    seconds = perf_counter() - start
    result.check("recovered subscriptions", system.subscription_count, wl.final_subscriptions)
    result.check("recovered R rows", len(system.shards[0].table_r), wl.final_rows_r)
    result.check("recovered S rows", len(system.shards[0].table_s_band), wl.final_rows_s)
    return seconds


def check_end_state(wl: workloads.Workload, end: Dict[str, int], result: PassResult) -> None:
    """What the generator alone predicts about the end of the stream."""
    data_events = sum(1 for element in wl.stream if isinstance(element, DataEvent))
    applied = end["events_applied"] - len(wl.preload)
    result.check("data events applied or coalesced", applied + 2 * end["coalesced_pairs"], data_events)
    result.check("final subscriptions", end["subscriptions"], wl.final_subscriptions)
    result.check("result rows > 0 (the probes hit something)", end["result_rows"] > 0, True)


# -- the passes ---------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    index = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return float(sorted_values[index])


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest waited-for child
    (the shm workers; Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_child_processes() -> None:
    """Leave no process behind, on any way out of a pass.

    ``pipeline.close()`` has joined the shm workers; a worker that outlived
    a failed close is killed here.  The other child is ``multiprocessing``'s
    resource tracker, started by the first shared-memory ring or doorbell
    semaphore: left alone it exits only *after* this interpreter has, so a
    caller that looks right then still sees it.  ``_stop`` closes its pipe
    and waits for it (it starts again if a later pass needs it).
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _in_work_dir(name: str, body: Any) -> None:
    """Run ``body(work)`` with a scratch directory that is removed after,
    and end with no child process alive."""
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        body(work)
    finally:
        stop_child_processes()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no concurrent pass is using it
        except OSError:
            pass


def _generate(name: str, seconds: float, scale: float, seed: int) -> Tuple[workloads.Workload, int]:
    spec = workloads.SPECS[name]
    n_timed = workloads.stream_length(spec, seconds, scale)
    return workloads.generate(name, seed, spec.batch_size + n_timed), n_timed


def run_reference(name: str, seed: int, seconds: float, scale: float) -> PassResult:
    """The untimed reference pass of the full protocol: the whole stream
    through a collecting pipeline and the unsharded engine, delta by delta.
    Its ``end_counts`` are what the timed and traced passes must reproduce."""
    wl, n_timed = _generate(name, seconds, scale, seed)
    result = PassResult(workload=name, seed=seed, trace=False, timed_elements=n_timed)

    def body(work: Path) -> None:
        result.end_counts = check_prefix(wl, len(wl.stream), work, result)
        check_end_state(wl, result.end_counts, result)

    _in_work_dir(name, body)
    return result


def run_pass(
    name: str,
    seed: int,
    seconds: float,
    scale: float,
    trace: bool,
    reference: Optional[Dict[str, int]] = None,
) -> PassResult:
    """One timed (or traced) pass.  ``reference`` is the ``end_counts`` of a
    reference pass over the same stream; without it the pass checks the
    first ``CHECK_SHARE`` of the stream itself."""
    wl, n_timed = _generate(name, seconds, scale, seed)
    result = PassResult(workload=name, seed=seed, trace=trace, timed_elements=n_timed)
    # A scaled-down run takes fewer set-up samples too, never under two.
    setup_count = max(2, round(SETUP_SAMPLES * min(1.0, scale)))
    gc.collect()
    gc.freeze()
    try:
        _in_work_dir(name, lambda work: _run_pass(wl, reference, setup_count, work, result))
    finally:
        gc.unfreeze()
    return result


def _run_pass(
    wl: workloads.Workload,
    reference: Optional[Dict[str, int]],
    setup_count: int,
    work: Path,
    result: PassResult,
) -> None:
    spec = wl.spec
    batch = spec.batch_size
    warm = batch
    trace = result.trace
    n_timed = result.timed_elements
    if reference is None:
        # A whole number of batches, so draining at the boundary flushes
        # nothing a run without the boundary would have kept pending.
        n_check = warm + max(2, int(n_timed * CHECK_SHARE) // batch) * batch
    else:
        n_check = len(wl.stream)

    tracer = RingTracer(capacity=1 << 20) if trace else NULL_TRACER
    pipeline, wal_dir, _ = set_up(wl, work, tracer=tracer)
    shims = spans.SpanShims() if trace else None
    probe = layers.Probe()
    speed = HostSpeed()
    timeline = Timeline()
    try:
        refused = drive(pipeline, wl.stream[:warm], Timeline())
        # In shm mode this pulls the workers' telemetry (counters, spans)
        # into the parent, so set-up's increments land before the snapshot.
        pipeline.sample_hotspots()
        before = layers.registry_totals(pipeline.metrics)
        HostSpeed().sample(SETUP_CALIBRATIONS)  # warm the kernel itself; not counted
        gc.collect()
        gc.freeze()
        if shims is not None:
            shims.install(probe.hooks())
        try:
            speed.sample()  # so even the shortest section has one next to it
            started_ns = perf_counter_ns()
            refused += drive(pipeline, wl.stream[warm:n_check], timeline, speed)
            at_boundary = boundary_counts(pipeline)
            refused += drive(pipeline, wl.stream[n_check:], timeline, speed)
        finally:
            if shims is not None:
                shims.uninstall()
        # Untimed from here.
        starts, ends = (np.array(side, dtype=np.float64) for side in zip(*timeline.rounds))
        wall = float((ends - starts).sum()) / 1e9  # the loop without the calibrations
        pipeline.sample_hotspots()
        after = layers.registry_totals(pipeline.metrics)
        delta = layers.totals_delta(before, after)
        at_end = boundary_counts(pipeline)
        if shims is not None:
            result.per_layer = layers.derive(
                wl, pipeline, shims, probe, tracer, delta, wall=wall, started_ns=started_ns
            )
            result.info["layer_shares"] = layers.layer_shares(result.per_layer, wall)
            result.check(
                f"layers.unattributed_ratio <= {layers.UNATTRIBUTED_LIMIT}",
                result.per_layer["layers.unattributed_ratio"] <= layers.UNATTRIBUTED_LIMIT,
                True,
            )
    finally:
        pipeline.close()
    rss = peak_rss_mb()  # after close (the workers have been waited for), before any replay
    setup_s, setup_samples = sample_setup_s(wl, work, setup_count)

    result.ops_attempted += warm + n_timed
    if refused:
        result.fail(f"{refused} element(s) refused by submit", ops=refused)
    if reference is None:
        want_boundary = check_prefix(wl, n_check, work, result)
        for key, want in want_boundary.items():
            result.check(f"{key} after {n_check} elements", at_boundary[key], want)
    else:
        for key, want in reference.items():
            result.check(f"{key} at the end against the reference pass", at_end[key], want)
    check_end_state(wl, at_end, result)
    for key in ("pipeline/events_dropped", "pipeline/events_rejected"):
        result.check(key, after["counters"].get(key, 0), 0)
    recover_s = check_recovery(wl, wal_dir, result) if wal_dir is not None else 0.0

    # Reference-host seconds: every round and every latency over the host
    # factor measured next to it.
    reference_wall = float(((ends - starts) / speed.local((starts + ends) / 2)).sum()) / 1e9
    latencies_us = np.sort(
        np.array(timeline.latencies_ns, dtype=np.float64) / speed.local(timeline.completed_ns)
    ) / 1e3
    result.end_to_end = {
        "setup_s": setup_s,
        "events_per_s": n_timed / reference_wall,
        "event_latency_p50_us": percentile(latencies_us, 0.50),
        "event_latency_p95_us": percentile(latencies_us, 0.95),
        "peak_rss_mb": rss,
        "failed_ops_ratio": result.ops_failed / result.ops_attempted,
    }
    result.counts = layers.repeat_counts(delta, at_end)
    result.end_counts = at_end
    result.info.update(
        timed_wall_s=wall,
        host_factor=wall / reference_wall,
        calibration_samples=len(speed.took_ns),
        wall_clock_events_per_s=n_timed / wall,
        latency_samples=len(latencies_us),
        batches=delta["counters"].get("pipeline/batches", 0),
        setup_samples_s=setup_samples,
        check_elements=n_check if reference is None else 0,
    )
    if trace:
        # The full protocol fills in the two a single pass cannot know: the
        # overhead needs the untraced passes, and with a reference record
        # this pass replayed nothing through the unsharded engine.
        result.per_layer["obs.traced_overhead_ratio"] = None
        result.per_layer["engine.reference_events_per_s"] = result.info.get("reference_events_per_s")
        result.per_layer["durability.recover_s"] = recover_s
