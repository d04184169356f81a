"""Measurement harness for the figure-reproduction benchmarks.

The paper measures *throughput*: "the number of data update events that
each approach is able to process per second", excluding output time.  Our
processors return their result dictionaries (output buffering is identical
across strategies, matching "common to all approaches"); the harness times
a replay of a fixed event list and reports events/second, plus helpers to
print the series each figure plots and to assert the qualitative shape
(who wins, by what factor) that the reproduction is expected to preserve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


@dataclass
class Series:
    """One line of a figure: a label plus (x, y) points."""

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)
    # First-occurrence index per x, so y_at is O(1) instead of list.index's
    # O(n) scan (sweeps call it once per assertion per point).
    _pos: Dict[float, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._reindex()

    def _reindex(self) -> None:
        self._pos = {}
        for i, x in enumerate(self.xs):
            self._pos.setdefault(x, i)

    def add(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)
        self._pos.setdefault(x, len(self.xs) - 1)

    def y_at(self, x: float) -> float:
        idx = self._pos.get(x)
        if idx is None:
            # xs may have been extended directly; re-derive before giving up.
            self._reindex()
            idx = self._pos.get(x)
            if idx is None:
                raise ValueError(f"{x!r} is not in series {self.label!r}")
        return self.ys[idx]


def measure_throughput(
    process: Callable[[object], object],
    events: Sequence[object],
    *,
    repeats: int = 1,
    warmup: int = 0,
) -> float:
    """Replay ``events`` through ``process`` and return events/second.

    ``warmup`` untimed passes run first (caches, lazy structures, JIT-free
    but allocator-warm state); with ``repeats`` > 1 the best of the timed
    runs is reported, which damps scheduler noise in shape assertions.
    Warmup passes replay the same events, so only use them with probe-only
    ``process`` callables that do not install state.
    """
    if not events:
        raise ValueError("need at least one event")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for __ in range(warmup):
        for event in events:
            process(event)
    best = 0.0
    for __ in range(repeats):
        start = time.perf_counter()
        for event in events:
            process(event)
        elapsed = time.perf_counter() - start
        best = max(best, len(events) / max(elapsed, 1e-12))
    return best


def measure_batched_throughput(
    process_batch: Callable[[Sequence[object]], object],
    events: Sequence[object],
    *,
    batch_size: int,
    repeats: int = 1,
    warmup: int = 0,
) -> float:
    """Replay ``events`` in ``batch_size`` chunks through ``process_batch``
    and return events/second (same warmup/best-of-repeats protocol as
    :func:`measure_throughput`)."""
    if not events:
        raise ValueError("need at least one event")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    chunks = [events[i : i + batch_size] for i in range(0, len(events), batch_size)]
    for __ in range(warmup):
        for chunk in chunks:
            process_batch(chunk)
    best = 0.0
    for __ in range(repeats):
        start = time.perf_counter()
        for chunk in chunks:
            process_batch(chunk)
        elapsed = time.perf_counter() - start
        best = max(best, len(events) / max(elapsed, 1e-12))
    return best


def measure_event_time_us(
    process: Callable[[object], object], events: Sequence[object], *, repeats: int = 1
) -> float:
    """Average processing time per event in microseconds (Figure 9's axis)."""
    return 1e6 / measure_throughput(process, events, repeats=repeats)


def measure_amortized_update_ns(
    apply_update: Callable[[Tuple[str, object]], None],
    updates: Sequence[Tuple[str, object]],
) -> float:
    """Amortized per-update maintenance cost in nanoseconds (Figure 11)."""
    if not updates:
        raise ValueError("need at least one update")
    start = time.perf_counter()
    for update in updates:
        apply_update(update)
    elapsed = time.perf_counter() - start
    return 1e9 * elapsed / len(updates)


def print_figure(
    title: str,
    x_label: str,
    series: Iterable[Series],
    *,
    y_format: str = "{:,.0f}",
) -> None:
    """Print a figure's series as an aligned table, one row per x value."""
    series = list(series)
    print(f"\n=== {title} ===")
    xs = series[0].xs
    header = [x_label] + [s.label for s in series]
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for i, x in enumerate(xs):
        row = [f"{x:g}".rjust(widths[0])]
        for s, w in zip(series, widths[1:]):
            value = s.ys[i] if i < len(s.ys) else float("nan")
            row.append(y_format.format(value).rjust(w))
        print("  ".join(row))


def assert_dominates(
    winner: Series, loser: Series, *, factor: float = 1.0, at: Iterable[float] | None = None
) -> None:
    """Assert the winner's y beats the loser's by at least ``factor`` at the
    given x values (all shared x by default).  Used by benchmarks to pin the
    figure's qualitative shape."""
    xs = list(at) if at is not None else [x for x in winner.xs if x in loser.xs]
    assert xs, "no shared x values to compare at"
    for x in xs:
        w = winner.y_at(x)
        l = loser.y_at(x)
        assert w >= l * factor, (
            f"expected {winner.label} >= {factor}x {loser.label} at x={x}: {w:.1f} vs {l:.1f}"
        )


def assert_flat(series: Series, *, max_drop: float) -> None:
    """Assert y never falls below ``max_drop`` times its maximum --- the
    "stays stable as x grows" claims (e.g. SJ-SSI across query counts)."""
    top = max(series.ys)
    bottom = min(series.ys)
    assert bottom >= top * max_drop, (
        f"{series.label} dropped to {bottom:.1f} (< {max_drop:.0%} of {top:.1f})"
    )


def assert_decreasing(series: Series, *, tolerance: float = 0.15) -> None:
    """Assert a series trends downward (allowing ``tolerance`` noise per
    step, relative to the current level)."""
    for (x0, y0), (x1, y1) in zip(zip(series.xs, series.ys), zip(series.xs[1:], series.ys[1:])):
        assert y1 <= y0 * (1.0 + tolerance), (
            f"{series.label} increased from {y0:.3g}@{x0:g} to {y1:.3g}@{x1:g}"
        )


def geometric_sweep(lo: int, hi: int, points: int) -> List[int]:
    """Roughly geometric integer sweep from lo to hi inclusive."""
    if points < 2 or lo < 1 or hi <= lo:
        raise ValueError("need points >= 2 and 1 <= lo < hi")
    out = []
    for i in range(points):
        value = round(lo * (hi / lo) ** (i / (points - 1)))
        if not out or value > out[-1]:
            out.append(value)
    return out
