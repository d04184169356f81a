"""The interval stabbing-count function f_I(x) (Section 3.3).

``f_I(x)`` is the number of intervals of ``I`` stabbed by ``x`` --- for a
continuous-query workload, the number of queries whose local selection is
satisfied by an incoming value.  Exact point evaluation is two binary
searches: ``f(x) = #{lo_i <= x} - #{hi_i < x}``.  The step-function view
(used by the histogram builders, whose error functionals integrate against
a density) is derived by evaluating the exact count at piece midpoints, so
no endpoint-convention bookkeeping can drift.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Sequence, Tuple

from repro.core.intervals import Interval
from repro.histogram.step import StepFunction


class IntervalFrequency:
    """Exact stabbing counts for a fixed set of intervals."""

    def __init__(self, intervals: Iterable[Interval]):
        intervals = list(intervals)
        if not intervals:
            raise ValueError("need at least one interval")
        self._los = sorted(interval.lo for interval in intervals)
        self._his = sorted(interval.hi for interval in intervals)

    @property
    def domain(self) -> Tuple[float, float]:
        return self._los[0], self._his[-1]

    def count(self, x: float) -> int:
        """Exact number of intervals containing ``x`` (closed endpoints)."""
        return bisect.bisect_right(self._los, x) - bisect.bisect_left(self._his, x)

    def breakpoints(self, lo: float | None = None, hi: float | None = None) -> List[float]:
        """Sorted distinct endpoint values inside [lo, hi] --- the only
        places f can change, hence the candidate bucket boundaries
        (Lemma 4)."""
        points = sorted(set(self._los) | set(self._his))
        if lo is not None:
            points = [p for p in points if p >= lo]
        if hi is not None:
            points = [p for p in points if p <= hi]
        return points

    def step_function(
        self, lo: float | None = None, hi: float | None = None
    ) -> StepFunction:
        """f_I restricted to [lo, hi] as a step function.

        Piece values are exact counts at piece midpoints, so the result
        agrees with :meth:`count` everywhere except on the measure-zero set
        of endpoints themselves.
        """
        d_lo, d_hi = self.domain
        lo = d_lo if lo is None else lo
        hi = d_hi if hi is None else hi
        if lo >= hi:
            raise ValueError("empty restriction domain")
        bounds = [lo] + [p for p in self.breakpoints(lo, hi) if lo < p < hi] + [hi]
        values = [float(self.count((a + b) / 2.0)) for a, b in zip(bounds, bounds[1:])]
        return StepFunction(tuple(bounds), tuple(values)).simplified()


def segment_weights(
    boundaries: Sequence[float], phi: "Density"
) -> List[float]:
    """``w_l = integral of phi over segment l`` for each piece."""
    return [phi.mass(a, b) for a, b in zip(boundaries, boundaries[1:])]


class Density:
    """A probability density phi(x) for the incoming-tuple distribution.

    Only piecewise-uniform densities are supported; the paper acquires phi
    "by standard statistical methods at runtime" and its evaluation uses
    uniformly distributed stabbing queries, i.e. a uniform phi.
    """

    def __init__(self, lo: float, hi: float):
        if lo >= hi:
            raise ValueError("empty density support")
        self.lo = lo
        self.hi = hi

    def mass(self, a: float, b: float) -> float:
        """Probability mass of [a, b]."""
        a = max(a, self.lo)
        b = min(b, self.hi)
        if a >= b:
            return 0.0
        return (b - a) / (self.hi - self.lo)

    @staticmethod
    def uniform_over(frequency: IntervalFrequency) -> "Density":
        lo, hi = frequency.domain
        if lo == hi:
            # Degenerate domain (all intervals are the same point): pad so a
            # uniform density still exists.
            return Density(lo - 0.5, hi + 0.5)
        return Density(lo, hi)
