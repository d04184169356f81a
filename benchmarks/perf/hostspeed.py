"""Host-speed calibration: every time the benchmark reports is in
**reference-host seconds**.

Why.  The reference host (2 vCPUs under Firecracker) changes speed on its
own by +-10% over tens of seconds: a fixed pure-Python loop runs anywhere
between 0.85 and 1.0 ms per call from one minute to the next, with no steal
time and nothing else running in the guest.  Wall-clock throughput of ten
passes of one commit therefore spreads 6-26% (inter-quartile over median),
and a longer pass does not help because the drift is slower than any pass
the driver's budget allows.  No usable regression bound fits over that.

How.  A small fixed kernel (``calibrate``) runs between batches of the timed
loop, roughly one millisecond in every ten, and around every set-up sample.
The host factor of an interval is the kernel's mean duration next to it
over the reference duration ``REFERENCE_S``; measured seconds are divided by
it.  Over ten passes per workload that cut the spread of events/s from 6-26%
to 1-8%, typically 2-5% (README, "Noise").  The kernel's own time lies
outside every reported interval.

The kernel is a mix on purpose.  The slowdowns hit interpreter-bound code
(attribute access, calls, small allocations) and numpy-bound code (short
``searchsorted`` probes, ``tolist`` snapshots) differently from minute to
minute, and the workloads are mixes of both: normalising by either half
alone left 5-7% on the workloads dominated by the other half.  It imports
nothing from the program, so a change under ``src/`` cannot move it.
"""

from __future__ import annotations

import bisect
from time import perf_counter_ns
from typing import List, Sequence

import numpy as np

#: Duration of one ``calibrate()`` on the reference host at its usual speed,
#: called once between two batches of a workload (it then runs on the caches
#: the workload left behind).  Only fixes the unit: a host that takes exactly
#: this long reports its wall-clock seconds unchanged.
REFERENCE_S = 0.0010
#: The same for calls made back to back, which run hot: the set-up samples
#: are bracketed by a dozen each.
REFERENCE_BACK_TO_BACK_S = 0.00072

#: ``HostSpeed.local`` averages the samples this close to a moment.
LOCAL_WINDOW_NS = 50_000_000

_KEYS: List[float] = [i * 0.001 for i in range(4096)]
_SORTED = np.sort(np.random.default_rng(1).random(200_000))
_PROBES = np.random.default_rng(2).random(64)


class _Row:
    __slots__ = ("ident", "key")

    def __init__(self, ident: int, key: float) -> None:
        self.ident = ident
        self.key = key

    def shifted(self, by: int) -> int:
        return self.ident + by


def calibrate() -> int:
    """Run the kernel once; returns its duration in nanoseconds."""
    start = perf_counter_ns()
    # Interpreter-bound half: objects, a method call, dict and list traffic,
    # a bisect over floats -- what routing, batching and the operators do.
    table = {}
    out = []
    append = out.append
    total = 0.0
    for i in range(600):
        row = _Row(i, i * 0.5)
        table[i & 63] = row
        j = bisect.bisect_left(_KEYS, (i * 0.37) % 4.0)
        total += row.shifted(j) * 0.5
        append((row.ident, j))
        other = table.get((i * 7) & 63)
        if other is not None:
            total += other.key
    # numpy-bound half: short vector probes into a sorted array that does
    # not fit the L2 cache and two snapshots-to-list (float allocation in a
    # C loop) -- what the fast path does per insert run.
    for _ in range(2):
        for _ in range(12):
            total += int(np.searchsorted(_SORTED, _PROBES).sum())
        _SORTED[:8192].tolist()
    return perf_counter_ns() - start


class HostSpeed:
    """Calibration samples taken over one measured stretch of time."""

    def __init__(self, reference_s: float = REFERENCE_S) -> None:
        self.reference_s = reference_s
        self.at_ns: List[int] = []  # when each sample began
        self.took_ns: List[int] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.at_ns.append(perf_counter_ns())
            self.took_ns.append(calibrate())

    @property
    def factor(self) -> float:
        """Mean kernel time over the reference time: >1 on a slow host."""
        return sum(self.took_ns) / len(self.took_ns) / 1e9 / self.reference_s

    def local(self, moments_ns: Sequence[float]) -> np.ndarray:
        """The factor around each moment: the mean over the samples taken
        within ``LOCAL_WINDOW_NS`` of it, or the nearest one if there is none.

        The host's speed moves by 10-20% from one half second to the next,
        so an interval is judged by the samples next to it; the whole
        pass's mean left twice the spread on the latency percentiles.
        """
        moments = np.asarray(moments_ns, dtype=np.float64)
        took = np.asarray(self.took_ns, dtype=np.float64)
        middles = np.asarray(self.at_ns, dtype=np.float64) + took / 2
        low = np.searchsorted(middles, moments - LOCAL_WINDOW_NS, side="left")
        high = np.searchsorted(middles, moments + LOCAL_WINDOW_NS, side="right")
        empty = high <= low
        nearest = np.clip(np.searchsorted(middles, moments), 0, len(took) - 1)
        low = np.where(empty, nearest, low)
        high = np.where(empty, nearest + 1, high)
        running = np.concatenate(([0.0], np.cumsum(took)))
        return (running[high] - running[low]) / (high - low) / 1e9 / self.reference_s
