"""Invariant probes: the paper's theorems as runtime checks.

Each probe inspects one target against the ground-truth
:class:`~repro.check.oracles.ModelState` and raises :class:`Divergence`
(with the target name and a description) on the first violated contract:

* **partitions** (lazy / refined / multidim) — membership equals the model's
  live set, the structure's own ``validate()`` passes, and the group count
  respects the ``(1 + eps) * tau`` bound of Lemma 3 / Theorem 2 with tau
  from the O(n^2) piercing oracle;
* **canonical partition** — the left-endpoint sweep agrees group-for-group
  with the piercing oracle (they provably coincide in 1-D), and its
  ``hotspots()`` agree with the naive classifier;
* **tracker** — invariants I1/I2 via ``HotspotTracker.validate()``, the I3
  amortized crossing bound, membership, and the (1 + eps) * tau + 2/alpha
  group bound against the oracle tau;
* **sharded runtime** — per-event merged deltas equal the unsharded
  reference's, which equal the nested-loop oracle's.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.intervals import Interval

from repro.check.oracles import (
    IntervalPair,
    ModelState,
    brute_force_stabbing_partition,
    naive_hotspots,
)
from repro.core.stabbing import canonical_stabbing_partition

_EPS = 1e-9


class Divergence(AssertionError):
    """A target disagreed with an oracle or violated an invariant."""

    def __init__(
        self, target: str, message: str, op_index: int | None = None
    ) -> None:
        self.target = target
        self.op_index = op_index
        super().__init__(f"[{target}] {message}")

    @property
    def message(self) -> str:
        return self.args[0]


def expect(condition: bool, target: str, message: str) -> None:
    if not condition:
        raise Divergence(target, message)


def _multiset(pairs: Sequence[IntervalPair]) -> List[IntervalPair]:
    return sorted(pairs)


# -- partitions --------------------------------------------------------------


def check_partition(
    target_name: str,
    partition: Any,
    model: ModelState,
    *,
    epsilon: float,
    interval_of: Callable[[Any], Interval] = lambda item: item,
) -> None:
    """Validity + membership + the (1 + eps) * tau size bound."""
    items = [item for group in partition.groups for item in group]
    got = _multiset((interval_of(i).lo, interval_of(i).hi) for i in items)
    want = model.interval_multiset()
    if got != want:
        first_diff = next(
            (g, w) for g, w in zip(got + [None], want + [None]) if g != w
        )
        raise Divergence(
            target_name,
            f"live-set mismatch: partition holds {len(got)} interval(s), "
            f"model holds {len(want)}; first diff {first_diff}",
        )
    try:
        partition.validate()
    except Divergence:
        raise
    except AssertionError as exc:
        raise Divergence(target_name, f"validate() failed: {exc}") from exc
    tau = model.tau()
    bound = (1.0 + epsilon) * tau + _EPS
    expect(
        len(partition.groups) <= bound,
        target_name,
        f"size bound violated: {len(partition.groups)} groups > "
        f"(1 + {epsilon}) * tau where oracle tau = {tau}",
    )


def check_canonical_against_piercing(model: ModelState) -> None:
    """The sweep construction vs the O(n^2) piercing oracle, group sizes and
    hotspot classification both."""
    pairs = list(model.intervals.values())
    sweep = canonical_stabbing_partition([tuple(p) for p in pairs],
                                         interval_of=_pair_interval)
    pierce = brute_force_stabbing_partition(pairs)
    expect(
        sweep.size == len(pierce),
        "canonical",
        f"tau mismatch: sweep {sweep.size} != piercing oracle {len(pierce)}",
    )
    sweep_sizes = sorted(g.size for g in sweep.groups)
    pierce_sizes = sorted(len(g) for g in pierce)
    expect(
        sweep_sizes == pierce_sizes,
        "canonical",
        f"group sizes mismatch: sweep {sweep_sizes} != oracle {pierce_sizes}",
    )
    if pairs:
        alpha = model.alpha
        want = sorted(len(g) for g in naive_hotspots(pairs, alpha))
        got = sorted(g.size for g in sweep.groups if g.size >= alpha * len(pairs))
        expect(
            got == want,
            "canonical",
            f"hotspot classification mismatch: sweep {got} != naive {want}",
        )


def _pair_interval(pair: Sequence[float]) -> Interval:
    return Interval(pair[0], pair[1])


# -- hotspot tracker ---------------------------------------------------------


def check_tracker(target_name: str, tracker: Any, model: ModelState) -> None:
    """Theorem 1: I1/I2 via validate(), I3 via the crossing counters, plus
    membership and the oracle-tau group bound."""
    items = [item for group in tracker.hotspot_groups for item in group]
    for group in tracker.scattered.groups:
        items.extend(group)
    got = _multiset((iv.lo, iv.hi) for iv in items)
    want = model.interval_multiset()
    expect(
        got == want,
        target_name,
        f"live-set mismatch: tracker holds {len(got)}, model holds {len(want)}",
    )
    try:
        tracker.validate()
    except AssertionError as exc:
        raise Divergence(target_name, f"validate() failed: {exc}") from exc
    moves = tracker.boundary_moves()
    budget = 5 * max(tracker.update_count, 1)
    expect(
        moves <= budget,
        target_name,
        f"I3 violated: {moves} boundary crossings > 5 * {tracker.update_count} updates",
    )
    tau = model.tau()
    total_groups = len(tracker.hotspot_groups) + len(tracker.scattered)
    epsilon = getattr(tracker.scattered, "epsilon", 1.0)
    bound = (1.0 + epsilon) * tau + 2.0 / tracker.alpha + _EPS
    expect(
        total_groups <= bound,
        target_name,
        f"I2 violated against oracle: {total_groups} groups > "
        f"(1 + {epsilon}) * {tau} + 2 / {tracker.alpha}",
    )
    for item in items:
        hot = tracker.is_hotspot_item(item)
        in_hot = any(item in g for g in tracker.hotspot_groups)
        expect(
            hot == in_hot,
            target_name,
            f"is_hotspot_item({item}) = {hot} but membership says {in_hot}",
        )


# -- sharded runtime ---------------------------------------------------------


def check_delta_equivalence(
    target_name: str,
    op_description: str,
    sharded: Dict[int, List[int]],
    reference: Dict[int, List[int]],
    oracle: Dict[int, Tuple[int, ...]],
) -> None:
    """Merged sharded deltas == unsharded deltas == nested-loop oracle.  The
    first two are row ids in list order, the reference's with no empty
    list, so a sharded list must hold a row and keep the reference's
    order; the oracle's ids are sorted."""
    expect(
        sharded == reference,
        target_name,
        f"{op_description}: sharded deltas {_fmt(sharded)} != "
        f"unsharded reference {_fmt(reference)}",
    )
    expect(
        {qid: tuple(sorted(ids)) for qid, ids in reference.items()} == oracle,
        target_name,
        f"{op_description}: engine deltas {_fmt(reference)} != "
        f"nested-loop oracle {_fmt(oracle)}",
    )


def _fmt(deltas: Dict[int, Sequence[int]], limit: int = 6) -> str:
    entries = sorted(deltas.items())
    text = ", ".join(f"q{qid}:{list(ids)}" for qid, ids in entries[:limit])
    if len(entries) > limit:
        text += f", ... ({len(entries)} queries)"
    return "{" + text + "}"
