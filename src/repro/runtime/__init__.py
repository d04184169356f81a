"""Sharded, micro-batched event-processing runtime.

The scaling layer above the engine: shard routing over the attribute
domain (``sharding``), micro-batching (``batching``), the
pipeline with worker-per-shard execution (``pipeline``),
cheap runtime metrics (``metrics``), and the deterministic replay driver
that proves the whole stack equivalent to the unsharded facade
(``replay``).  See ``docs/RUNTIME.md`` for the architecture.
"""

from repro.runtime.batching import BatchEntry, MicroBatcher
from repro.runtime.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.runtime.pipeline import EventPipeline
from repro.runtime.replay import (
    ReplayReport,
    StreamProfile,
    generate_mixed_stream,
    normalize_deltas,
    run_replay,
)
from repro.runtime.sharding import (
    Shard,
    ShardGroup,
    ShardRange,
    ShardRouter,
    merge_deltas,
    scaled_alpha,
)

__all__ = [
    "BatchEntry",
    "Counter",
    "EventPipeline",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MicroBatcher",
    "ReplayReport",
    "Shard",
    "ShardGroup",
    "ShardRange",
    "ShardRouter",
    "StreamProfile",
    "generate_mixed_stream",
    "merge_deltas",
    "normalize_deltas",
    "run_replay",
    "scaled_alpha",
]
