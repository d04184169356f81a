"""The figure-shape library the ``benchmarks/`` figure files share: series,
throughput/maintenance timers, shape assertions and the figure printer."""

from repro.bench.harness import (
    Series,
    assert_decreasing,
    assert_dominates,
    assert_flat,
    geometric_sweep,
    measure_amortized_update_ns,
    measure_event_time_us,
    measure_throughput,
    print_figure,
)

__all__ = [
    "Series",
    "assert_decreasing",
    "assert_dominates",
    "assert_flat",
    "geometric_sweep",
    "measure_amortized_update_ns",
    "measure_event_time_us",
    "measure_throughput",
    "print_figure",
]
