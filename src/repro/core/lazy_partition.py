"""The lazy maintenance strategy of Section 2.3 (Lemma 3).

The strategy starts from the canonical stabbing partition and handles updates
cheaply --- a deleted interval is removed from its group, an inserted interval
either joins a group whose common intersection it overlaps (the paper's first
refinement) or becomes a singleton group --- then periodically rebuilds the
canonical partition from scratch.

Two reconstruction triggers are provided:

* ``trigger="simple"`` — rebuild after ``eps * tau0 / (eps + 2)`` updates,
  exactly as in the proof of Lemma 3;
* ``trigger="relaxed"`` (default) — rebuild only when the group count
  actually threatens the bound, i.e. when ``|P| > (1 + eps) * (tau0 - m)``
  where ``m`` counts deletions of intervals that were present at the last
  reconstruction.  This is the weaker condition described in the paper and
  leads to far fewer reconstructions in practice (cf. the Figure 11
  discussion: "the reconstruction stage occurs fairly infrequently").

Either way the maintained partition always has at most ``(1 + eps) * tau(I)``
groups, which the property tests verify against the canonical partition.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.intervals import Interval
from repro.core.partition_base import DynamicGroup, DynamicStabbingPartitionBase
from repro.core.stabbing import (
    StabbingPartition, canonical_stabbing_partition, identity_interval, stabbing_number,
)
from repro.core.partition_base import T


class LazyStabbingPartition(DynamicStabbingPartitionBase[T]):
    """Dynamic stabbing partition with lazy periodic reconstruction."""

    def __init__(
        self,
        items: List[T] | None = None,
        *,
        epsilon: float = 1.0,
        interval_of: Callable[[T], Interval] = identity_interval,
        trigger: str = "relaxed",
        reuse_overlapping_group: bool = True,
    ):
        super().__init__(interval_of)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if trigger not in ("simple", "relaxed"):
            raise ValueError(f"unknown trigger: {trigger!r}")
        self._epsilon = epsilon
        self._trigger = trigger
        self._reuse = reuse_overlapping_group
        self._groups: List[DynamicGroup[T]] = []
        self._group_of: Dict[int, DynamicGroup[T]] = {}
        # Reconstruction-epoch state.  An item is "original" (counted by
        # the relaxed trigger's m when deleted) iff it was already present
        # at the last reconstruction/recalibration, i.e. its recorded epoch
        # predates the current one.
        self._tau0 = 0
        self._epoch = 0
        self._item_epoch: Dict[int, int] = {}
        self._original_deletions = 0
        self._updates_since_recon = 0
        self.recalibration_count = 0
        if items:
            if len({id(item) for item in items}) < len(items):
                raise ValueError("item repeated")
            self._rebuild(list(items))
            self.reconstruction_count = 0  # the initial build is not a rebuild

    # -- public API ----------------------------------------------------------

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def groups(self) -> List[DynamicGroup[T]]:
        return list(self._groups)

    def insert(self, item: T) -> None:
        if id(item) in self._group_of:
            raise ValueError("item already present")
        interval = self._interval_of(item)
        target: Optional[DynamicGroup[T]] = None
        if self._reuse:
            lo, hi = interval.lo, interval.hi
            for group in self._groups:
                # would_remain_stabbed, inline (see HotspotTracker.insert).
                if group.max_lo <= hi and lo <= group.min_hi:
                    target = group
                    break
        self._item_epoch[id(item)] = self._epoch
        if target is None:
            target = DynamicGroup(self._interval_of)
            self._groups.append(target)
            self._notify_group_created(target)
        target.add(item)
        self._group_of[id(item)] = target
        self._notify_item_added(target, item)
        self._after_update()

    def delete(self, item: T) -> None:
        group = self._group_of.pop(id(item))
        group.remove(item)
        self._notify_item_removed(group, item)
        if group.size == 0:
            self._groups.remove(group)
            self._notify_group_destroyed(group)
        if self._item_epoch.pop(id(item), self._epoch) < self._epoch:
            self._original_deletions += 1
        self._after_update()

    def size_bound(self) -> float:
        """The worst-case bound (1 + eps) * tau(I) currently guaranteed."""
        return (1.0 + self._epsilon) * max(self._tau0 - self._original_deletions, 0)

    def validate(self) -> None:
        """Stabbing validity and item-to-group bookkeeping, each group's
        orders, the epoch records, and the Lemma 3 bound
        ``|P| <= (1 + eps) * tau(I)`` against the true current tau."""
        super().validate()
        for group in self._groups:
            group.check()
        assert set(self._item_epoch) == set(self._group_of), (
            "epoch records out of sync with live items"
        )
        tau = stabbing_number(self._all_items(), self._interval_of)
        assert len(self._groups) <= (1.0 + self._epsilon) * tau + 1e-9, (
            f"{len(self._groups)} groups > (1 + {self._epsilon}) * tau "
            f"where tau = {tau}"
        )

    # -- internals -----------------------------------------------------------

    def _after_update(self) -> None:
        self.update_count += 1
        self._updates_since_recon += 1
        if self._needs_reconstruction():
            if self._trigger == "relaxed":
                # The relaxed trigger checks the actual bound, so a cheap
                # recalibration can often stand in for a rebuild.
                self._recalibrate_or_rebuild()
            else:
                # Lemma 3's accounting requires a fresh canonical partition
                # at the start of every epoch.
                self._rebuild(self._all_items())

    def _needs_reconstruction(self) -> bool:
        if self._trigger == "simple":
            budget = self._epsilon * self._tau0 / (self._epsilon + 2.0)
            return self._updates_since_recon >= max(1.0, budget)
        remaining = max(self._tau0 - self._original_deletions, 0)
        return len(self._groups) > (1.0 + self._epsilon) * remaining

    def _all_items(self) -> List[T]:
        out: List[T] = []
        for group in self._groups:
            out.extend(group)
        return out

    def _recalibrate_or_rebuild(self) -> None:
        """Re-establish the epoch guarantee, rebuilding only when needed.

        The trigger conditions use ``tau0 - m`` as a conservative lower
        bound on the current tau(I); under churn it decays quickly even
        though tau(I) (and the maintained group count) barely move.  So
        when a trigger fires we first *recompute* tau(I): if the maintained
        partition is still within its (1 + eps) budget we merely reset the
        epoch (tau0 := tau(I), m := 0) and keep every group --- no listener
        churn, which is what keeps SSI maintenance cheap on naturally
        clustered subscriptions (the paper's Figure 11 observation).  Only
        when the partition has genuinely drifted past the bound do we
        rebuild it from the canonical partition.
        """
        items = self._all_items()
        tau = stabbing_number(items, self._interval_of)
        self.recalibration_count += 1
        if len(self._groups) <= (1.0 + self._epsilon) * tau:
            self._tau0 = tau
            self._epoch += 1  # every live item becomes "original"
            self._original_deletions = 0
            self._updates_since_recon = 0
            return
        self._rebuild(items)

    def _rebuild(self, items: List[T]) -> None:
        self._notify_rebuild_started()
        self._install(canonical_stabbing_partition(items, self._interval_of))

    def _install(self, canonical: StabbingPartition[T]) -> None:
        self._groups = []
        self._group_of = {}
        for static_group in canonical.groups:
            group: DynamicGroup[T] = DynamicGroup(self._interval_of)
            for item in static_group.items:
                group.add(item)
                self._group_of[id(item)] = group
            self._groups.append(group)
        self._tau0 = len(self._groups)
        self._epoch += 1
        self._item_epoch = {key: 0 for key in self._group_of}
        self._original_deletions = 0
        self._updates_since_recon = 0
        self.reconstruction_count += 1
        self._notify_rebuilt()
