#!/usr/bin/env python3
"""Compare two full-protocol records: ``compare.py base.json new.json``.

One row per workload x end-to-end metric with both medians, the ratio
**with its base**, the bound the benchmark fixed and a verdict:

* ``regressed``  -- ``new`` is worse than ``base`` by more than the bound;
* ``improved``   -- better by more than the bound;
* ``unchanged``  -- within the bound either way;
* ``unresolved`` -- the passes of either record spread wider than the bound,
  so a difference of that size cannot be told from noise.

``failed_ops_ratio`` has no bound: any rise is a regression.  Exit status 1
on any ``regressed`` row.  This is a gate, not a claim: a claimed gain still
needs the ten alternating pairs of the choosing-metrics guide.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median (range for a handful of
    passes, inter-quartile distance from four values up)."""
    median = statistics.median(values)
    if not median or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(base: Dict[str, Any], new: Dict[str, Any]) -> str:
    a, b = base["median"], new["median"]
    bound = base.get("bound")
    if bound is None:  # failed_ops_ratio
        return "regressed" if b > a else ("improved" if b < a else "unchanged")
    if max(spread(base["values"]), spread(new["values"])) > bound:
        return "unresolved"
    worse = (b - a) / a if base["better"] == "lower" else (a - b) / a
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "unchanged"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for metric, a in entry["end_to_end"].items():
            b = other["end_to_end"][metric]
            rows.append({
                "workload": workload, "metric": metric, "unit": a["unit"],
                "base": a["median"], "new": b["median"],
                "ratio": b["median"] / a["median"] if a["median"] else None,
                "bound": a.get("bound"), "verdict": verdict(a, b),
            })
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows = compare(*records)
    print(f"{'workload':<16} {'metric':<22} {'base':>12} {'new':>12} {'new/base':>22} {'bound':>6}  verdict")
    for row in rows:
        ratio = "n/a (base 0)" if row["ratio"] is None else f"{row['ratio']:.3f} (base {row['base']:.5g})"
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        print(f"{row['workload']:<16} {row['metric']:<22} {row['base']:>12.5g} {row['new']:>12.5g} "
              f"{ratio:>22} {bound:>6}  {row['verdict']}")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    print(f"{len(rows)} rows, {len(regressed)} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
