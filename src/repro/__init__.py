"""repro — a reproduction of *Scalable Continuous Query Processing by
Tracking Hotspots* (Agarwal, Xie, Yang, Yu; VLDB 2006).

The package implements the paper's full stack from scratch:

* ``repro.core`` — stabbing partitions, dynamic (1+eps)-approximate
  maintenance, hotspot tracking, and the stabbing set index framework;
* ``repro.dstruct`` — the index substrates (B+ tree, R-tree, interval tree,
  treap with split/join, sorted sequences);
* ``repro.engine`` — relations, update streams, and the continuous-query
  model;
* ``repro.operators`` — the band-join and select-join processing strategies
  (SSI-based and all paper baselines);
* ``repro.histogram`` — SSI-HIST, EQW-HIST and the DP-optimal histogram for
  interval stabbing counts;
* ``repro.workload`` — synthetic workload generators matching Table 1;
* ``repro.bench`` — the figure-shape library (``Series``, ``measure_*``,
  ``assert_*``, ``print_figure``) the ``benchmarks/`` figure files share;
* ``repro.runtime`` — the sharded, micro-batched event-processing runtime
  (shard routing, micro-batches, metrics, deterministic replay);
* ``repro.durability`` — write-ahead log, checkpoints and crash recovery
  for that runtime;
* ``repro.wire`` — the one binary record/row/reader layer under both
  (``durability → runtime → wire``, never back).
"""

from repro.core import (
    HotspotTracker,
    Interval,
    LazyStabbingPartition,
    RefinedStabbingPartition,
    StabbingSetIndex,
    canonical_stabbing_partition,
    stabbing_number,
)

__version__ = "1.0.0"

__all__ = [
    "HotspotTracker",
    "Interval",
    "LazyStabbingPartition",
    "RefinedStabbingPartition",
    "StabbingSetIndex",
    "canonical_stabbing_partition",
    "stabbing_number",
    "__version__",
]
