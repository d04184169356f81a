#!/usr/bin/env python3
"""The repo's one benchmark: five EventPipeline workloads, end to end.

Two ways in, one measuring code path (``harness.run_pass``):

* **One pass** -- the form ``BENCHMARK.json`` names::

      python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

  Generates the workload from the seed, sets up, times a fixed element
  count (``S`` x the workload's calibrated seed rate), checks the first
  tenth of the stream delta by delta and prints every metric by name with
  its unit; the last line is one JSON object ``{"correct", "attempted",
  "failed", "metrics"}`` holding the end-to-end metrics (``--trace 0``) or
  the per-layer metrics (``--trace 1``).

* **The full protocol** -- leave ``--trace`` out::

      python3 benchmarks/perf/run.py --seed 2006 [--workload NAME] [--scale F] [--out FILE]

  Per workload one untimed reference pass over the whole stream, three
  untraced passes and one traced pass, each in a fresh interpreter, the timed
  ones interleaved round-robin across workloads; reports the median of the
  three, holds all four to the reference pass's counts and to each other's
  exact-repeat counts, and ends with one JSON record (also written to
  ``--out``).

Load model: closed loop, one client thread (``submit`` is synchronous).
Times are in reference-host seconds (``hostspeed.py``).  Run from the
repository root; ``src/`` is put on ``sys.path`` from here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: End-to-end metrics: name, unit, direction.  ``failed_ops_ratio`` is
#: reported here and by ``compare.py`` but is not an ``end_to_end`` entry of
#: BENCHMARK.json, whose metrics must never be 0; the contract's
#: ``attempted``/``failed`` carry it there.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("event_latency_p50_us", "us", "lower"),
    ("event_latency_p95_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_ops_ratio", "ratio", "lower"),
]
#: Untraced passes per workload in the full protocol; the metric is their median.
PASSES = 3
#: Length of a full-protocol pass: 5 workloads x (reference + 3 + traced)
#: passes fit five minutes at this length.  The driver names its own
#: (``run_seconds`` in BENCHMARK.json); both only scale the event counts.
FULL_PROTOCOL_SECONDS = 6.0
PASS_TIMEOUT_S = 600


def benchmark_json() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def refuse_racecheck() -> None:
    if os.environ.get("REPRO_RACECHECK", "").strip().lower() not in ("", "0", "false", "no"):
        sys.exit("run.py: refusing to measure under REPRO_RACECHECK (witness locks distort every timing)")


def share_line(shares: Dict[str, float]) -> str:
    ranked = sorted(shares.items(), key=lambda item: -item[1])
    return "  layer shares of traced wall: " + ", ".join(f"{layer} {share:.1%}" for layer, share in ranked)


def units() -> Dict[str, str]:
    import layers

    out = {name: unit for name, unit, _ in END_TO_END}
    out.update({m.name: m.unit for m in layers.CATALOGUE})
    return out


# -- one pass -----------------------------------------------------------------


def one_pass(workload: str, seed: int, seconds: float, scale: float, trace: bool) -> int:
    import harness

    result = harness.run_pass(workload, seed, seconds, scale, trace)
    unit = units()
    info = result.info
    print(
        f"workload {result.workload} seed {result.seed}: closed loop, 1 client thread, "
        f"{result.timed_elements} timed elements in {info['timed_wall_s']:.3f} s of wall clock "
        f"({info['batches']} batches, {info['latency_samples']} latency samples)"
    )
    print(
        f"  host factor {info['host_factor']:.4f} over {info['calibration_samples']} calibrations: "
        f"{info['wall_clock_events_per_s']:.6g} events per wall-clock second; "
        "times below are in reference-host seconds"
    )
    shown: Dict[str, Optional[float]] = dict(result.end_to_end)
    shown.update(result.per_layer)
    for name, value in shown.items():
        print(f"  {name:<36} {'null' if value is None else format(value, '.6g'):>14} {unit[name]}")
    print(f"  ops_attempted {result.ops_attempted}  ops_failed {result.ops_failed}")
    for failure in result.failures:
        print(f"  FAILED: {failure}")
    if trace:
        print(share_line(info["layer_shares"]))
    values = result.per_layer if trace else result.end_to_end
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    print(json.dumps({
        "correct": result.ops_failed == 0, "attempted": result.ops_attempted,
        "failed": result.ops_failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


# -- the full protocol --------------------------------------------------------


def environment() -> Dict[str, Any]:
    from repro.fastpath import KERNEL

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_FASTPATH_KERNEL": KERNEL,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def in_fresh_process(function: str, *args: Any) -> Any:
    """Call ``harness.<function>(*args)`` in a new interpreter (``child.py``),
    so no pass inherits another's heap, caches or patched attributes, and
    return its ``PassResult``."""
    import harness

    done = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=json.dumps({"function": function, "args": args}),
        cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    sys.stderr.write(done.stderr)  # shim warnings, tracebacks
    if done.returncode != 0:
        raise SystemExit(f"run.py: {function}{args} exited {done.returncode}")
    return harness.PassResult(**json.loads(done.stdout.splitlines()[-1]))


def reference_wall(result: Any) -> float:
    """A pass's timed wall in reference-host seconds."""
    return result.info["timed_wall_s"] / result.info["host_factor"]


def full_protocol(
    names: List[str], seed: int, seconds: float, scale: float, passes: int = PASSES
) -> Dict[str, Any]:
    """Run the protocol and return its record; ``record["ok"]`` says whether
    every operation of every pass succeeded."""
    import layers
    import workloads

    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    reference: Dict[str, Any] = {}
    timed: Dict[str, List[Any]] = {name: [] for name in names}
    traced: Dict[str, Any] = {}
    for name in names:
        print(f"[reference] {name}", flush=True)
        reference[name] = in_fresh_process("run_reference", name, seed, seconds, scale)
    # Round-robin: pass i of every workload before pass i+1 of any, so slow
    # drift of the host lands on all workloads alike.
    for round_index in range(passes):
        for name in names:
            print(f"[timed {round_index + 1}/{passes}] {name}", flush=True)
            timed[name].append(in_fresh_process(
                "run_pass", name, seed, seconds, scale, False, reference[name].end_counts
            ))
    for name in names:
        print(f"[traced] {name}", flush=True)
        traced[name] = in_fresh_process(
            "run_pass", name, seed, seconds, scale, True, reference[name].end_counts
        )

    record: Dict[str, Any] = {
        "benchmark": "benchmarks/perf", "claim": None, "seed": seed, "scale": scale,
        "seconds": seconds, "passes": passes,
        "load_model": "closed loop, 1 client thread",
        "time_unit": "reference-host seconds (wall clock / host_factor, see hostspeed.py)",
        "env": environment(), "workloads": {}, "ok": True,
    }
    for name in names:
        passes_of = timed[name]
        trace = traced[name]
        everything = (reference[name], *passes_of, trace)
        trace.per_layer["obs.traced_overhead_ratio"] = (
            reference_wall(trace) / statistics.median(reference_wall(p) for p in passes_of) - 1.0
        )
        trace.per_layer["engine.reference_events_per_s"] = reference[name].info["reference_events_per_s"]
        mismatched = sorted({
            key for p in passes_of for key, value in p.counts.items() if value != trace.counts[key]
        })
        attempted = sum(p.ops_attempted for p in everything)
        failed = sum(p.ops_failed for p in everything) + len(mismatched)
        end_to_end: Dict[str, Any] = {}
        for metric, unit, better in END_TO_END:
            values = [p.end_to_end[metric] for p in passes_of]
            end_to_end[metric] = {
                "median": statistics.median(values), "values": values, "unit": unit,
                "better": better, "bound": bounds.get(metric),
            }
        end_to_end["failed_ops_ratio"]["median"] = failed / attempted
        shares = trace.info["layer_shares"]
        record["workloads"][name] = {
            "why": workloads.SPECS[name].why,
            "timed_elements": trace.timed_elements,
            "end_to_end": end_to_end,
            "host_factors": [p.info["host_factor"] for p in passes_of],
            "wall_clock_events_per_s": [p.info["wall_clock_events_per_s"] for p in passes_of],
            "latency_samples": passes_of[0].info["latency_samples"],
            "batches": passes_of[0].info["batches"],
            "ops_attempted": attempted, "ops_failed": failed,
            "failures": [f for p in everything for f in p.failures]
            + [f"count {key} differs between passes" for key in mismatched],
            "reference_counts": reference[name].end_counts,
            "counts": trace.counts,
            "per_layer": trace.per_layer,
            "layer_shares": shares,
            "traced_wall_s": trace.info["timed_wall_s"],
        }
        record["ok"] = record["ok"] and failed == 0
        print(f"\n== {name}: {workloads.SPECS[name].why}")
        for metric, unit, _ in END_TO_END:
            entry = end_to_end[metric]
            print(f"  {metric:<24} {entry['median']:>14.6g} {unit:<6} "
                  f"(passes: {', '.join(format(v, '.6g') for v in entry['values'])})")
        print(f"  ops_attempted {attempted}  ops_failed {failed}")
        for metric in layers.CATALOGUE:
            value = trace.per_layer.get(metric.name)
            print(f"  {metric.name:<36} {'null' if value is None else format(value, '.6g'):>14} {metric.unit}")
        print(share_line(shares))
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, help="length of a pass on the reference host "
                        f"(default: BENCHMARK.json run_seconds with --trace, else {FULL_PROTOCOL_SECONDS:g})")
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies every stream length")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run ONE pass, untraced (0) or traced (1)")
    parser.add_argument("--out", help="write the full protocol's JSON record here")
    parser.add_argument("--list", action="store_true", help="print the workloads and why each exists")
    args = parser.parse_args(argv)

    refuse_racecheck()
    try:
        import workloads
    except ImportError as exc:
        # E.g. a directory holding only the benchmark: nothing to measure.
        print(f"run.py: cannot import the program under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.list:
        for spec in workloads.SPECS.values():
            print(f"{spec.name}: {spec.why}")
        return 0
    if args.workload is not None and args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.SPECS)}")
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace runs one pass and needs --workload")
        seconds = args.seconds if args.seconds is not None else float(benchmark_json()["run_seconds"])
        return one_pass(args.workload, args.seed, seconds, args.scale, bool(args.trace))
    names = [args.workload] if args.workload else list(workloads.SPECS)
    seconds = args.seconds if args.seconds is not None else FULL_PROTOCOL_SECONDS
    record = full_protocol(names, args.seed, seconds, args.scale)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
