"""Piecewise-constant (step) functions.

Histograms and interval-frequency functions are both step functions; this
module provides the shared value type: a right-open piecewise-constant
function with value ``values[i]`` on ``[boundaries[i], boundaries[i+1])``
and 0 outside ``[boundaries[0], boundaries[-1])``.  Point values on the
measure-zero piece edges follow the right-open convention; all the error
functionals used in Section 3.3 are integrals against a density, so the
convention never affects a reported number.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, List, Tuple


@dataclass(frozen=True)
class StepFunction:
    """An immutable step function.

    ``boundaries`` is strictly increasing with ``len(values) + 1`` entries.
    """

    boundaries: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.values) + 1:
            raise ValueError("need len(values) + 1 boundaries")
        if len(self.values) == 0:
            raise ValueError("empty step function")
        for a, b in zip(self.boundaries, self.boundaries[1:]):
            if a >= b:
                raise ValueError("boundaries must be strictly increasing")

    @property
    def piece_count(self) -> int:
        return len(self.values)

    @property
    def support(self) -> Tuple[float, float]:
        return self.boundaries[0], self.boundaries[-1]

    def __call__(self, x: float) -> float:
        idx = bisect.bisect_right(self.boundaries, x) - 1
        if idx < 0 or idx >= len(self.values):
            return 0.0
        return self.values[idx]

    def simplified(self) -> "StepFunction":
        """Merge adjacent pieces with equal values."""
        bounds: List[float] = [self.boundaries[0]]
        vals: List[float] = [self.values[0]]
        for boundary, value in zip(self.boundaries[1:-1], self.values[1:]):
            if value == vals[-1]:
                continue
            bounds.append(boundary)
            vals.append(value)
        bounds.append(self.boundaries[-1])
        return StepFunction(tuple(bounds), tuple(vals))

    @staticmethod
    def sum_of(functions: Iterable["StepFunction"]) -> "StepFunction":
        """Pointwise sum; boundaries are merged (k-way)."""
        functions = [f for f in functions]
        if not functions:
            raise ValueError("sum_of() needs at least one function")
        points = sorted({b for f in functions for b in f.boundaries})
        values: List[float] = []
        for left, right in zip(points, points[1:]):
            mid = (left + right) / 2.0
            values.append(sum(f(mid) for f in functions))
        return StepFunction(tuple(points), tuple(values)).simplified()

    def integrate(
        self,
        fn: Callable[[float, float, float], float],
        lo: float | None = None,
        hi: float | None = None,
    ) -> float:
        """Sum ``fn(left, right, value)`` over the pieces clipped to
        [lo, hi]; used to evaluate error integrals piece by piece."""
        lo = self.boundaries[0] if lo is None else lo
        hi = self.boundaries[-1] if hi is None else hi
        total = 0.0
        for i, value in enumerate(self.values):
            left = max(self.boundaries[i], lo)
            right = min(self.boundaries[i + 1], hi)
            if left < right:
                total += fn(left, right, value)
        return total
