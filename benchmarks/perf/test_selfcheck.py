"""Self-check of the benchmark's own machinery (not of the program's speed).

Run explicitly -- tier-1's ``testpaths`` does not collect it::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_selfcheck.py -q
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def record():
    """The full protocol at scale 0.05 with one untraced pass instead of
    three (a reference, an untraced and a traced pass per workload, each in
    its own process)."""
    started = time.perf_counter()
    out = bench.full_protocol(
        list(workloads.SPECS), seed=7, seconds=bench.FULL_PROTOCOL_SECONDS, scale=0.05, passes=1
    )
    out["_elapsed_s"] = time.perf_counter() - started
    return out


def test_all_five_finish_quickly(record):
    assert list(record["workloads"]) == list(workloads.SPECS)
    assert record["_elapsed_s"] < 60.0
    assert record["ok"] and record["claim"] is None
    for key in ("python", "numpy", "REPRO_FASTPATH_KERNEL", "nproc", "platform", "git_sha"):
        assert key in record["env"]


def test_every_named_metric_is_present(record):
    end_to_end = [name for name, _, _ in bench.END_TO_END]
    for name, entry in record["workloads"].items():
        assert list(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) == {m.name for m in layers.CATALOGUE}, name
        for metric, value in entry["per_layer"].items():
            assert NAME.fullmatch(metric), metric
            assert isinstance(value, (int, float)), (name, metric, value)
        assert entry["end_to_end"]["failed_ops_ratio"]["median"] == 0, entry["failures"]
        assert entry["counts"]["result_rows"] > 0, name
        assert entry["reference_counts"]["result_rows"] >= entry["counts"]["result_rows"], name


def test_self_times_reconcile(record):
    for name, entry in record["workloads"].items():
        per_layer = entry["per_layer"]
        assert 0 <= per_layer["layers.unattributed_ratio"] <= layers.UNATTRIBUTED_LIMIT, name
        shares = sum(entry["layer_shares"].values()) + per_layer["layers.unattributed_ratio"]
        assert shares == pytest.approx(1.0, abs=0.02), (name, shares)


def test_benchmark_json_matches_the_code():
    spec = bench.benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SPECS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.SPECS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    # One pass cannot know the tracing overhead (it needs the untraced
    # passes), so only the full protocol reports that metric.
    assert declared == {
        (m.name, m.unit, m.better) for m in layers.CATALOGUE if m.name != "obs.traced_overhead_ratio"
    }
    known = {name: (unit, better) for name, unit, better in bench.END_TO_END}
    for metric in spec["end_to_end"]:
        assert known[metric["name"]] == (metric["unit"], metric["better"])
        assert 0 < metric["bound"] <= 0.25  # the contract's ceiling; README "Noise" has the reasons
    for metric in (*spec["end_to_end"], *spec["per_layer"]):
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])


def test_shims_leave_nothing_behind():
    def attribute(target):
        owner = __import__(target.module, fromlist=["_"])
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return vars(owner).get(name, "inherited")

    before = [attribute(target) for target in spans.TARGETS]
    shims = spans.SpanShims()
    shims.install()
    try:
        assert shims.missing == []
        assert any(attribute(t) is not b for t, b in zip(spans.TARGETS, before))
    finally:
        shims.uninstall()
    assert all(attribute(t) is b for t, b in zip(spans.TARGETS, before))


def test_missing_target_degrades_to_null(capsys):
    gone = spans.Target("fastpath.band_r", "repro.fastpath.band", "no_such_probe")
    kept = spans.Target("batching.drain", "repro.runtime.batching", "MicroBatcher.drain")
    shims = spans.SpanShims([gone, kept])
    shims.install()
    try:
        assert shims.missing == ["fastpath.band_r"]
    finally:
        shims.uninstall()
    assert "no_such_probe is gone" in capsys.readouterr().err
    assert shims.self_s("fastpath.band_r", "fastpath.band_s") is None
    assert shims.count("fastpath.band_r") is None
    assert shims.self_s("batching.drain") == 0.0


def test_a_pass_leaves_no_process_behind():
    import multiprocessing
    from multiprocessing import resource_tracker

    import harness

    result = harness.run_pass("shm_ingest", 7, bench.FULL_PROTOCOL_SECONDS, 0.02, False)
    assert result.ops_failed == 0, result.failures
    assert multiprocessing.active_children() == []
    # The rings and doorbells started the resource tracker; it is stopped and reaped.
    assert resource_tracker._resource_tracker._pid is None


def test_workloads_are_reproducible():
    for name in workloads.SPECS:
        a = workloads.generate(name, 11, 600)
        b = workloads.generate(name, 11, 600)
        assert repr(a.stream) == repr(b.stream) and repr(a.preload) == repr(b.preload)
        assert repr(a.stream) != repr(workloads.generate(name, 12, 600).stream)
    shm = workloads.generate("shm_ingest", 11, 600)
    durable = workloads.generate("durable_ingest", 11, 600)
    assert repr(shm.stream) == repr(durable.stream)


def test_refuses_racecheck():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--list"], cwd=ROOT, capture_output=True,
        text=True, env={"REPRO_RACECHECK": "1", "PATH": "/usr/bin:/bin"}, timeout=60,
    )
    assert done.returncode != 0 and "REPRO_RACECHECK" in done.stderr
