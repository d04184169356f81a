"""The refined stabbing-partition maintenance algorithm (Appendix B).

Like the lazy strategy, the refined algorithm keeps a partition of size at
most ``(1 + eps) * tau(I)`` by inserting new intervals as singleton groups
and reconstructing after ``eps * tau0 / (eps + 2)`` updates.  The differences
are what make it suitable for real-time use:

* every group is stored in a balanced tree (here: a treap) ordered by left
  endpoint and augmented with subtree common intersections, supporting
  INSERT / DELETE / SPLIT / JOIN in O(log n);
* each insertion or deletion touches exactly **one** group, so per-group SSI
  structures rarely need propagation;
* the reconstruction stage emulates the greedy sweep of Lemma 1 *batched
  over groups*: rather than rescanning all n intervals it walks the O(tau0)
  groups in order of the left endpoints of their common intersections,
  absorbing whole groups where possible and SPLITting at most one group per
  emitted output group, for O(tau0 log n) total tree work.

Correctness rests on invariant (*) from the paper: member left endpoints are
ordered consistently across the (non-fresh) groups, which holds for the
canonical partition and is preserved by deletions and by the splits the
reconstruction itself performs.  The property tests verify that every
reconstruction produces exactly the canonical partition of the current items.

Bookkeeping note: we rebuild the item-to-group map with one O(n) dictionary
pass per reconstruction.  The paper avoids this with parent pointers inside
the trees; the structural tree work is the faithful O(tau0 log n) algorithm.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Generic, Iterator, List, Optional

from repro.core.intervals import Interval, common_intersection
from repro.core.partition_base import DynamicStabbingPartitionBase, T
from repro.core.stabbing import canonical_stabbing_partition, identity_interval, stabbing_number
from repro.dstruct.treap import Treap


def _intersect(a: Optional[Interval], b: Optional[Interval]) -> Optional[Interval]:
    if a is None or b is None:
        return None
    return a.intersect(b)


class RefinedGroup(Generic[T]):
    """A stabbing group backed by a left-endpoint-ordered, intersection-
    augmented treap.  Duck-type compatible with
    :class:`~repro.core.partition_base.DynamicGroup`.
    """

    __slots__ = ("treap", "fresh", "_interval_of")

    def __init__(self, treap: Treap[T], interval_of: Callable[[T], Interval], fresh: bool):
        self.treap = treap
        self.fresh = fresh
        self._interval_of = interval_of

    @property
    def size(self) -> int:
        return len(self.treap)

    def __len__(self) -> int:
        return len(self.treap)

    def __iter__(self) -> Iterator[T]:
        return self.treap.items_values()

    @property
    def items(self) -> List[T]:
        return list(self.treap.items_values())

    @property
    def common(self) -> Optional[Interval]:
        return self.treap.aggregate

    @property
    def stabbing_point(self) -> float:
        common = self.common
        assert common is not None, "empty group has no stabbing point"
        return common.hi

    def add(self, item: T) -> None:
        self.treap.insert(self._interval_of(item).lo, item)

    def remove(self, item: T) -> None:
        self.treap.remove(self._interval_of(item).lo, match=lambda it: it is item)

    def split_prefix(self, x: float) -> Treap[T]:
        """Split off (and return) the members whose left endpoint is <= x."""
        return self.treap.split(x, after_equal=True)


class RefinedStabbingPartition(DynamicStabbingPartitionBase[T]):
    """Dynamic stabbing partition per Appendix B (Theorem 2)."""

    def __init__(
        self,
        items: List[T] | None = None,
        *,
        epsilon: float = 1.0,
        interval_of: Callable[[T], Interval] = identity_interval,
        seed: Optional[int] = None,
    ):
        super().__init__(interval_of)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self._epsilon = epsilon
        self._rng = random.Random(seed)
        self._groups: List[RefinedGroup[T]] = []
        self._group_of: Dict[int, RefinedGroup[T]] = {}
        self._tau0 = 0
        self._updates_since_recon = 0
        # Tree-operation counters backing the O(tau0 log n) claim in tests.
        self.split_count = 0
        self.join_count = 0
        if items:
            self._initial_build(list(items))

    # -- public API -----------------------------------------------------------

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def groups(self) -> List[RefinedGroup[T]]:
        return list(self._groups)

    def insert(self, item: T) -> None:
        """Insert as a singleton group; touches no existing group."""
        if id(item) in self._group_of:
            raise ValueError("item already present")
        group = RefinedGroup(self._new_treap(), self._interval_of, fresh=True)
        self._groups.append(group)
        self._notify_group_created(group)
        group.add(item)
        self._group_of[id(item)] = group
        self._notify_item_added(group, item)
        self._after_update()

    def delete(self, item: T) -> None:
        """Delete from its group; touches exactly that one group."""
        group = self._group_of.pop(id(item))
        group.remove(item)
        self._notify_item_removed(group, item)
        if group.size == 0:
            self._groups.remove(group)
            self._notify_group_destroyed(group)
        self._after_update()

    def validate(self) -> None:
        """Stabbing validity plus the refined algorithm's own contracts:
        treap aggregates must equal the recomputed common intersections,
        fresh groups are singletons (insertions never join a group outside
        reconstruction), bookkeeping is consistent, and the partition obeys
        the Theorem 2 bound ``|P| <= (1 + eps) * tau(I)``."""
        super().validate()
        for group in self._groups:
            if group.fresh:
                assert group.size == 1, (
                    f"fresh group holds {group.size} items; insertions are "
                    "always singletons"
                )
            recomputed = common_intersection(
                self._interval_of(item) for item in group
            )
            assert group.common == recomputed, (
                f"treap aggregate {group.common} != recomputed intersection "
                f"{recomputed}"
            )
        items = [item for group in self._groups for item in group]
        tau = stabbing_number(items, self._interval_of)
        assert len(self._groups) <= (1.0 + self._epsilon) * tau + 1e-9, (
            f"{len(self._groups)} groups > (1 + {self._epsilon}) * tau "
            f"where tau = {tau}"
        )

    # -- internals --------------------------------------------------------------

    def _new_treap(self) -> Treap[T]:
        return Treap(aggregate=(self._interval_of, _intersect), rng=self._rng)

    def _after_update(self) -> None:
        self.update_count += 1
        self._updates_since_recon += 1
        budget = self._epsilon * self._tau0 / (self._epsilon + 2.0)
        if self._updates_since_recon >= max(1.0, budget):
            self._reconstruct()

    def _initial_build(self, items: List[T]) -> None:
        canonical = canonical_stabbing_partition(items, self._interval_of)
        self._groups = []
        self._group_of = {}
        for static_group in canonical.groups:
            treap = self._new_treap()
            group = RefinedGroup(treap, self._interval_of, fresh=False)
            for item in static_group.items:
                group.add(item)
                self._group_of[id(item)] = group
            self._groups.append(group)
        self._tau0 = len(self._groups)
        self._updates_since_recon = 0

    def _reconstruct(self) -> None:
        self._notify_rebuild_started()
        self._do_reconstruct()

    def _do_reconstruct(self) -> None:
        """The RECONSTRUCTION-STAGE of Appendix B (prose version).

        Emulates the greedy sweep batched over groups.  Walks the nonempty
        groups in increasing order of the left endpoints of their common
        intersections, keeping an *active set* A = (TU, V) with common
        intersection ``gamma``:

        * whole groups whose intersection starts inside ``gamma`` are
          absorbed (JOIN for original groups, a pending list for fresh
          singletons);
        * when the next group starts past ``gamma``'s right endpoint, the
          leftmost unprocessed original group is SPLIT at that endpoint ---
          by invariant (*) it is the only group that can still contribute
          members to A --- the prefix is absorbed, and A is emitted as an
          output group with stabbing point r(gamma).
        """
        order = sorted(
            (g for g in self._groups if g.size > 0),
            key=lambda g: g.common.lo,  # type: ignore[union-attr]
        )
        originals = [g for g in order if not g.fresh]
        processed: Dict[int, bool] = {id(g): False for g in order}
        next_original = 0

        emitted: List[RefinedGroup[T]] = []
        tu: Treap[T] = self._new_treap()
        pending: List[T] = []
        gamma: Optional[Interval] = None

        def emit() -> None:
            nonlocal tu, pending
            assert gamma is not None
            for item in pending:
                tu.insert(self._interval_of(item).lo, item)
            emitted.append(RefinedGroup(tu, self._interval_of, fresh=False))
            tu = self._new_treap()
            pending = []

        def absorb_split_prefix(group: RefinedGroup[T]) -> None:
            """SPLIT ``group`` at r(gamma) and absorb the prefix into A."""
            nonlocal gamma
            assert gamma is not None
            prefix = group.split_prefix(gamma.hi)
            self.split_count += 1
            if len(prefix) > 0:
                gamma = _intersect(gamma, prefix.aggregate)
                assert gamma is not None, "split prefix broke the active set"
                tu.join(prefix)
                self.join_count += 1
            if group.size == 0:
                processed[id(group)] = True

        for group in order:
            if processed[id(group)] or group.size == 0:
                continue
            processed[id(group)] = True
            common = group.common
            assert common is not None
            if gamma is None:
                # First group opens the active set.
                if group.fresh:
                    pending = group.items
                else:
                    tu = group.treap
                gamma = common
                continue
            if common.lo <= gamma.hi:
                # Case 1: the whole group joins the active set.
                if group.fresh:
                    pending.extend(group.items)
                else:
                    tu.join(group.treap)
                    self.join_count += 1
                gamma = _intersect(gamma, common)
                assert gamma is not None, "case-1 absorption broke the active set"
            else:
                # Case 2: close the active group.  At most one original group
                # can still hold members belonging to A; split it first.
                if group.fresh:
                    while next_original < len(originals) and (
                        processed[id(originals[next_original])]
                        or originals[next_original].size == 0
                    ):
                        next_original += 1
                    if next_original < len(originals):
                        absorb_split_prefix(originals[next_original])
                    emit()
                    pending = group.items
                    gamma = common
                else:
                    absorb_split_prefix(group)
                    emit()
                    # The remainder of this group opens the next active set.
                    assert group.size > 0, "case-2 remainder cannot be empty"
                    tu = group.treap
                    gamma = group.common
        if gamma is not None:
            emit()

        self._install(emitted)

    def _install(self, groups: List[RefinedGroup[T]]) -> None:
        self._groups = groups
        self._group_of = {}
        for group in groups:
            for item in group:
                self._group_of[id(item)] = group
        self._tau0 = len(groups)
        self._updates_since_recon = 0
        self.reconstruction_count += 1
        self._notify_rebuilt()
