"""Tests for the benchmark measurement harness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import (
    Series,
    assert_decreasing,
    assert_dominates,
    assert_flat,
    geometric_sweep,
    measure_amortized_update_ns,
    measure_batched_throughput,
    measure_event_time_us,
    measure_throughput,
    print_figure,
)


class TestSeries:
    def test_add_and_lookup(self):
        series = Series("s")
        series.add(1, 10.0)
        series.add(2, 20.0)
        assert series.y_at(2) == 20.0
        with pytest.raises(ValueError):
            series.y_at(99)


class TestMeasurement:
    def test_throughput_positive(self):
        events = list(range(1000))
        rate = measure_throughput(lambda e: e + 1, events)
        assert rate > 0

    def test_throughput_requires_events(self):
        with pytest.raises(ValueError):
            measure_throughput(lambda e: e, [])

    def test_batched_throughput_chunks_every_event(self):
        chunks = []
        rate = measure_batched_throughput(chunks.append, list(range(10)), batch_size=4)
        assert rate > 0
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        with pytest.raises(ValueError):
            measure_batched_throughput(chunks.append, [1], batch_size=0)

    def test_event_time_inverse_of_throughput(self):
        events = list(range(200))
        us = measure_event_time_us(lambda e: e, events)
        assert us > 0

    def test_amortized_update(self):
        applied = []
        ns = measure_amortized_update_ns(applied.append, [("insert", 1)] * 100)
        assert ns > 0
        assert len(applied) == 100
        with pytest.raises(ValueError):
            measure_amortized_update_ns(applied.append, [])


class TestAssertions:
    def test_dominates_pass_and_fail(self):
        fast = Series("fast", [1, 2], [100.0, 100.0])
        slow = Series("slow", [1, 2], [10.0, 10.0])
        assert_dominates(fast, slow, factor=5.0)
        with pytest.raises(AssertionError):
            assert_dominates(slow, fast)

    def test_dominates_requires_shared_x(self):
        a = Series("a", [1], [1.0])
        b = Series("b", [2], [1.0])
        with pytest.raises(AssertionError):
            assert_dominates(a, b)

    def test_flat(self):
        stable = Series("s", [1, 2, 3], [100.0, 95.0, 90.0])
        assert_flat(stable, max_drop=0.8)
        with pytest.raises(AssertionError):
            assert_flat(Series("s", [1, 2], [100.0, 10.0]), max_drop=0.8)

    def test_decreasing(self):
        down = Series("d", [1, 2, 3], [9.0, 5.0, 1.0])
        assert_decreasing(down)
        with pytest.raises(AssertionError):
            assert_decreasing(Series("d", [1, 2], [1.0, 9.0]))


class TestSweep:
    def test_geometric_endpoints(self):
        sweep = geometric_sweep(10, 10_000, 4)
        assert sweep[0] == 10 and sweep[-1] == 10_000
        assert sweep == sorted(set(sweep))

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_sweep(10, 5, 3)
        with pytest.raises(ValueError):
            geometric_sweep(10, 100, 1)


def test_print_figure_smoke(capsys):
    series = [Series("a", [1, 2], [10.0, 20.0]), Series("b", [1, 2], [1.0, 2.0])]
    print_figure("Demo", "x", series)
    out = capsys.readouterr().out
    assert "Demo" in out and "a" in out and "b" in out


def test_every_figure_file_imports():
    """The figure files are not tier-1; without this, an import of a helper
    this library no longer has would surface only when a figure is next run."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "benchmarks", "--ignore=benchmarks/perf"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
