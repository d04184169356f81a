"""The paper's primary contribution: stabbing partitions, dynamic
maintenance, hotspot tracking, and the stabbing set index (SSI) framework.
"""

from repro.core.intervals import (
    Interval,
    common_intersection,
    endpoints_equal,
    same_interval,
)
from repro.core.stabbing import (
    StabbingGroup,
    StabbingPartition,
    canonical_stabbing_partition,
    stabbing_number,
)
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.refined_partition import RefinedStabbingPartition
from repro.core.hotspot_tracker import HotspotTracker
from repro.core.ssi import HotspotIndex, StabbingSetIndex

__all__ = [
    "Interval",
    "common_intersection",
    "endpoints_equal",
    "same_interval",
    "StabbingGroup",
    "StabbingPartition",
    "canonical_stabbing_partition",
    "stabbing_number",
    "LazyStabbingPartition",
    "RefinedStabbingPartition",
    "HotspotTracker",
    "StabbingSetIndex",
    "HotspotIndex",
]
