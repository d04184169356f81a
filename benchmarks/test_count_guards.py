"""Count guards over the perf benchmark's workloads (host-speed independent).

Each test runs one or more ``harness.run_pass`` passes (seed 1, 3 s) with a
counter wrapped around the code it guards, and asserts a count the batch
kernels and the pipeline were built to keep: how often a key column or a
group table is built, how much of a batch a strike scans, how many results
a window step writes, how many collector passes a flush runs.  A count does
not depend on the host's speed, so each bound is exact or near it.

Run explicitly -- tier-1's ``testpaths`` does not collect it::

    PYTHONPATH=src python -m pytest -q -s benchmarks/test_count_guards.py
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERF = ROOT / "benchmarks" / "perf"
sys.path.insert(0, str(PERF))

import harness  # noqa: E402


def test_band_probe_builds_each_key_column_once(monkeypatch):
    # The band kernels read each table's sorted key column (col_b),
    # built on first read and kept in place by every row write.  A
    # later build is a rebuild: a write met a buffer view a probe
    # left behind and dropped the column.
    from repro.engine.table import _Table
    col_b = _Table.__dict__["col_b"]
    build = col_b.func
    builds = {}  # id(table) -> [table, builds]; holding the table keeps its id
    def counted(table):
        builds.setdefault(id(table), [table, 0])[1] += 1
        return build(table)
    monkeypatch.setattr(col_b, "func", counted)
    result = harness.run_pass("band_probe", 1, 3.0, 1.0, trace=False)
    assert result.ops_failed == 0, result.failures
    counts = sorted(count for __, count in builds.values())
    assert counts and counts[-1] == 1, f"a key column was rebuilt: builds per table {counts}"
    print(f"band_probe guard OK: {len(counts)} key columns, each built once")


def test_select_strike_scans_few_events(monkeypatch):
    # The select plane's row strike looks up each event's join key
    # once and scans the event's lists only when a row of that key
    # may be hidden at its position; scanning every event was the
    # per-entry cost it replaced.
    from repro.runtime import sharding
    strike_select, drop_hidden = sharding._strike_select, sharding._drop_hidden
    seen = {"events": 0, "scanned": 0, "struck": 0}
    inside = []
    def counted_strike(parts, *args):
        seen["events"] += sum(1 for deltas in parts if deltas)
        inside.append(True)
        try:
            struck = strike_select(parts, *args)
        finally:
            inside.pop()
        seen["struck"] += struck
        return struck
    def counted_scan(*args):
        seen["scanned"] += bool(inside)
        return drop_hidden(*args)
    monkeypatch.setattr(sharding, "_strike_select", counted_strike)
    monkeypatch.setattr(sharding, "_drop_hidden", counted_scan)
    result = harness.run_pass("select_hotspot", 1, 3.0, 1.0, trace=False)
    assert result.ops_failed == 0, result.failures
    assert seen["events"] and seen["struck"], seen
    share = seen["scanned"] / seen["events"]
    assert share <= 0.15, f"the select-plane strike scanned {share:.1%} of its events: {seen}"
    print(f"select_hotspot guard OK: scanned {seen['scanned']} of {seen['events']} events ({share:.1%})")


def test_band_strike_scans_suspects_and_window_step_writes_each_entry_once(monkeypatch):
    # The band kernel names the (row, query) results whose window
    # holds a touched join key of the other relation, and the band
    # strike scans only those: one bisect per band delta entry was
    # the cost it replaced (0.09% of the entries are suspects here).
    # Its window step drops the succ-side targets that repeat a
    # pred-side one before it fills the dicts, so it writes each band
    # delta entry once: a duplicate reaching the fill would overwrite
    # an entry and write more than the deltas hold.
    from repro.fastpath import band
    from repro.runtime import sharding
    apply_batch = sharding.Shard.apply_batch
    strike_band, drop_hidden = sharding._strike_band, sharding._drop_hidden
    emit = band._emit
    seen = {"entries": 0, "scanned": 0, "struck": 0, "targets": 0, "written": 0}
    inside = []
    def counted_emit(keys, values, targets, *args, **kwargs):
        written = emit(keys, values, targets, *args, **kwargs)
        seen["targets"] += len(targets.queries)
        seen["written"] += written
        return written
    def counted_apply(self, *args):
        band, select, owned = apply_batch(self, *args)
        seen["entries"] += sum(map(len, band or ()))
        return band, select, owned
    def counted_strike(*args):
        inside.append(True)
        try:
            struck = strike_band(*args)
        finally:
            inside.pop()
        seen["struck"] += struck
        return struck
    def counted_scan(deltas, queries, *args):
        if inside:
            seen["scanned"] += len(queries)
        return drop_hidden(deltas, queries, *args)
    monkeypatch.setattr(sharding.Shard, "apply_batch", counted_apply)
    monkeypatch.setattr(sharding, "_strike_band", counted_strike)
    monkeypatch.setattr(sharding, "_drop_hidden", counted_scan)
    monkeypatch.setattr(band, "_emit", counted_emit)
    result = harness.run_pass("band_probe", 1, 3.0, 1.0, trace=False)
    assert result.ops_failed == 0, result.failures
    assert seen["entries"] and seen["struck"], seen
    share = seen["scanned"] / seen["entries"]
    assert share <= 0.01, f"the band-plane strike scanned {share:.2%} of its delta entries: {seen}"
    print(f"band_probe guard OK: scanned {seen['scanned']} of {seen['entries']} band delta entries ({share:.2%})")
    # band_probe is pure BJ-SSI: every band delta entry comes from the window step.
    assert seen["written"] == seen["entries"], f"the window step wrote {seen['written']} results for {seen['entries']} band delta entries: {seen}"
    print(f"band_probe guard OK: the window step wrote {seen['written']} results, one per band delta entry, from {seen['targets']} gathered targets")


def test_hot_group_tests_few_members_per_result(monkeypatch):
    # A hot group's member test reads the candidate window of each
    # kept (row, group) pair, the members with sel_lo in
    # [x - reach, x]: ~3.3 members per result here, where a mask over
    # every member of each kept group tested ~24.
    from repro.fastpath import select
    stab_windows = select._stab_windows
    seen = {"tested": 0, "results": 0}
    def counted(joined, kept, candidates, results):
        before = sum(map(len, results))
        stab_windows(joined, kept, candidates, results)
        seen["tested"] += candidates
        seen["results"] += sum(map(len, results)) - before
    monkeypatch.setattr(select, "_stab_windows", counted)
    result = harness.run_pass("select_hotspot", 1, 3.0, 1.0, trace=False)
    assert result.ops_failed == 0, result.failures
    assert seen["results"], seen
    per_result = seen["tested"] / seen["results"]
    assert per_result <= 5, f"hot-group members tested per result rose to {per_result:.1f}: {seen}"
    print(f"select_hotspot guard OK: {per_result:.2f} hot-group members tested per result {seen}")


def test_group_tables_and_band_phase_1(monkeypatch):
    # A group table is rebuilt only when a group is attached or
    # detached or a member change moves a stabbing point, so a batch
    # (its subscribes, its R and S runs, then its cancels) builds each
    # index's table at most once.  The band kernel's phase 1 goes
    # through numpy only from MIN_CANDIDATES (row, group) pairs up:
    # query_churn's calls hold ~20 pairs, band_probe's 1,440 or more.
    from repro.core.ssi import GroupStructures
    from repro.fastpath import band
    from repro.runtime.pipeline import EventPipeline
    group_table, flush = GroupStructures.group_table, EventPipeline._flush_batch
    batch_probe, vector_candidates = band._batch_probe, band._vector_candidates
    builds = {}  # id(index) -> group-table builds in the current batch
    seen = {"batches": 0, "builds": 0, "worst": 0, "calls": 0, "numpy": 0}
    def counted_table(self):
        before = self.snapshot_builds
        table = group_table(self)
        if self.snapshot_builds != before:
            builds[id(self)] = builds.get(id(self), 0) + 1
            seen["builds"] += 1
        return table
    def counted_flush(self, *args):
        builds.clear()
        try:
            return flush(self, *args)
        finally:
            seen["batches"] += 1
            seen["worst"] = max(seen["worst"], *builds.values(), 0)
    def counted_probe(col_b, rows, points, structures, *args, **kwargs):
        # A call that reaches phase 1: rows, a group and a probed row.
        if rows and len(col_b[0]) and any(st.by_lo for st in structures):
            seen["calls"] += 1
        return batch_probe(col_b, rows, points, structures, *args, **kwargs)
    def counted_candidates(*args):
        seen["numpy"] += 1
        return vector_candidates(*args)
    monkeypatch.setattr(GroupStructures, "group_table", counted_table)
    monkeypatch.setattr(EventPipeline, "_flush_batch", counted_flush)
    monkeypatch.setattr(band, "_batch_probe", counted_probe)
    monkeypatch.setattr(band, "_vector_candidates", counted_candidates)
    result = harness.run_pass("query_churn", 1, 3.0, 1.0, trace=False)
    assert result.ops_failed == 0, result.failures
    assert seen["batches"] and seen["builds"] and seen["calls"], seen
    assert seen["worst"] <= 1, f"an index built its group table {seen['worst']} times in a batch: {seen}"
    # Most batches move no stabbing point: 701 builds in 1,236 batches
    # here, where dropping the table on every member change made 1,563.
    assert seen["builds"] < seen["batches"], f"more group-table builds than batches: {seen}"
    assert seen["numpy"] == 0, f"{seen['numpy']} query_churn band calls took the numpy phase 1: {seen}"
    print(f"query_churn guard OK: {seen}")
    for key in seen:
        seen[key] = 0
    result = harness.run_pass("band_probe", 1, 3.0, 1.0, trace=False)
    assert result.ops_failed == 0, result.failures
    assert seen["calls"] and seen["numpy"] == seen["calls"], f"band_probe calls looped in phase 1: {seen}"
    print(f"band_probe guard OK: {seen['numpy']} of {seen['calls']} band calls took the numpy phase 1")


def _traced_record(name):
    """The last line of one traced ``run.py`` pass: its JSON record."""
    out = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_traced_runs_and_batches():
    record = _traced_record("band_probe")
    assert record["correct"] is True and record["failed"] == 0, record
    # A batch of 64 is one R run and one S run (~29 rows each); a
    # boundary at every relation switch made it 4.5.
    run_len = record["metrics"]["sharding.mean_run_len"]["value"]
    assert run_len >= 16, f"mean fast-path run fell to {run_len} rows"
    print(f"band_probe guard OK: mean run {run_len:.1f} rows")
    # Inline, the pipeline builds one shard, which holds every band:
    # one band kernel call per R run and one per S run, so at most
    # two per batch (the seed-1 stream cuts no batch into segments;
    # one band plane per shard of four made it 8).
    calls = record["metrics"]["fastpath.calls"]["value"]
    batches = record["metrics"]["pipeline.batches"]["value"]
    assert calls <= 2 * batches, f"{calls} fast-path calls over {batches} batches"
    print(f"band_probe guard OK: {calls} fast-path calls over {batches} batches")
    record = _traced_record("select_hotspot")
    assert record["correct"] is True and record["failed"] == 0, record
    # Inline, the one shard holds every select-join over the shared
    # S table: one select kernel call per R run and one per S run, so
    # at most two per batch (one select plane per shard, each probing
    # its C-slice's S rows, made it up to 2 * K).
    calls = record["metrics"]["fastpath.calls"]["value"]
    batches = record["metrics"]["pipeline.batches"]["value"]
    assert calls <= 2 * batches, f"{calls} fast-path calls over {batches} batches"
    print(f"select_hotspot guard OK: {calls} fast-path calls over {batches} batches")
    record = _traced_record("query_churn")
    assert record["correct"] is True and record["failed"] == 0, record
    # 90% of query_churn's stream is subscription changes.  As batch
    # entries they share a batch of 64 with ~6.4 data events; as
    # barriers they cut it to 1.11.
    mean_batch = record["metrics"]["pipeline.mean_batch_size"]["value"]
    assert mean_batch >= 4, f"query_churn batches fell to {mean_batch} data events"
    print(f"query_churn guard OK: {mean_batch:.2f} data events per batch")


@pytest.mark.parametrize("name", ["select_hotspot", "band_probe"])
def test_no_collector_pass_inside_a_flush(monkeypatch, name):
    # A batch's results live until it returns, so a collector pass
    # inside it walks them again: 322 gen-0, 28 gen-1 and 1 gen-2
    # passes ran inside the flushes of select_hotspot's pass before
    # EventPipeline.flush paused the collector.
    from repro.runtime.pipeline import EventPipeline
    flush = EventPipeline.flush
    inside = []
    seen = {"flushes": 0, "passes": [0, 0, 0]}
    def counted_flush(self):
        seen["flushes"] += 1
        inside.append(True)
        try:
            return flush(self)
        finally:
            inside.pop()
    def count(phase, info):
        if phase == "start" and inside:
            seen["passes"][info["generation"]] += 1
    monkeypatch.setattr(EventPipeline, "flush", counted_flush)
    gc.callbacks.append(count)
    try:
        result = harness.run_pass(name, 1, 3.0, 1.0, trace=False)
    finally:
        gc.callbacks.remove(count)
    assert result.ops_failed == 0, result.failures
    assert seen["flushes"], seen
    assert not any(seen["passes"]), f"collector passes (gen 0, 1, 2) ran inside a flush: {seen}"
    print(f"{name} guard OK: no collector pass inside {seen['flushes']} flushes")
