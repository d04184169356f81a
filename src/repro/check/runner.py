"""The fuzz loop: execute, detect, shrink, persist.

``run_sequence`` streams one op sequence through every selected target
simultaneously (sharing a single :class:`ModelState` as ground truth),
applying per-op checks inline (delta equivalence, batch drains) and the
expensive invariant probes every ``check_every`` ops.  The first
:class:`~repro.check.probes.Divergence`, or any other exception a target
raises, stops the run as that target's divergence.

``shrink_ops`` reduces a failing sequence by delta debugging: truncate to
the divergence point, ddmin over op subsets (re-normalizing candidates so
they stay well-formed), then greedily narrow the numeric payloads of the
survivors.  A candidate counts as failing only if it diverges on the *same
target*, which keeps the shrinker from sliding onto an unrelated failure.

Reproducers are plain JSON — the shrunk ops plus the divergence record —
replayable via ``replay_reproducer`` or ``repro fuzz --replay FILE``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.ops import FuzzConfig, Op, generate_ops
from repro.check.oracles import ModelState
from repro.check.probes import Divergence, check_canonical_against_piercing
from repro.check.targets import DEFAULT_TARGETS, TARGET_FACTORIES, FuzzTarget


@dataclass(frozen=True)
class DivergenceRecord:
    """Where and how a run failed."""

    op_index: int
    target: str
    message: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "op_index": self.op_index,
            "target": self.target,
            "message": self.message,
        }

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "DivergenceRecord":
        return DivergenceRecord(
            int(data["op_index"]), data["target"], data["message"]
        )


@dataclass
class RunOutcome:
    """Result of executing one op sequence against the targets."""

    ops_applied: int
    check_rounds: int
    divergence: Optional[DivergenceRecord] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None


def _make_targets(
    names: Sequence[str],
    factories: Optional[Dict[str, Callable[[], FuzzTarget]]] = None,
) -> List[FuzzTarget]:
    registry = dict(TARGET_FACTORIES)
    if factories:
        registry.update(factories)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise ValueError(
            f"unknown target(s) {unknown}; available: {sorted(registry)}"
        )
    return [registry[name]() for name in names]


def _describe(exc: Exception) -> str:
    """A target's own error, recorded as that target's divergence, so it
    is shrunk and dumped like any other (a worker's ERROR answer, a
    violated tree invariant)."""
    return f"{type(exc).__name__}: {exc}"


def run_sequence(
    ops: Sequence[Op],
    *,
    targets: Sequence[str] = DEFAULT_TARGETS,
    check_every: int = 32,
    factories: Optional[Dict[str, Callable[[], FuzzTarget]]] = None,
) -> RunOutcome:
    """Execute ``ops`` against all targets; stop at the first divergence.

    Illegal ops (possible in hand-edited reproducers) are skipped rather
    than rejected, so shrunk and edited sequences replay without fuss.
    """
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    live = _make_targets(targets, factories)
    model = ModelState()
    check_rounds = 0
    applied = 0
    try:
        for index, op in enumerate(ops):
            if not model.is_legal(op):
                continue
            model.apply(op)
            applied += 1
            for target in live:
                if op.kind not in target.kinds:
                    continue
                try:
                    target.apply(op, model)
                except Divergence as exc:
                    return RunOutcome(
                        applied,
                        check_rounds,
                        DivergenceRecord(index, exc.target, exc.message),
                    )
                except Exception as exc:
                    return RunOutcome(
                        applied,
                        check_rounds,
                        DivergenceRecord(index, target.name, _describe(exc)),
                    )
            if applied % check_every == 0 or index == len(ops) - 1:
                check_rounds += 1
                failure = _check_round(live, model, index)
                if failure is not None:
                    return RunOutcome(applied, check_rounds, failure)
        return RunOutcome(applied, check_rounds)
    finally:
        # Targets may own processes, shm segments or temp directories (the
        # process-shm and durable pipeline cells); release them whether the
        # run passed, diverged, or raised.
        for target in live:
            target.close()


def _check_round(
    live: List[FuzzTarget], model: ModelState, op_index: int
) -> Optional[DivergenceRecord]:
    try:
        check_canonical_against_piercing(model)
    except Divergence as exc:
        return DivergenceRecord(op_index, exc.target, exc.message)
    for target in live:
        try:
            target.check(model)
        except Divergence as exc:
            return DivergenceRecord(op_index, exc.target, exc.message)
        except Exception as exc:
            return DivergenceRecord(op_index, target.name, _describe(exc))
    return None


# -- shrinking ---------------------------------------------------------------


def normalize_ops(ops: Sequence[Op]) -> List[Op]:
    """Drop ops made illegal by earlier removals (dependency closure)."""
    model = ModelState()
    kept: List[Op] = []
    for op in ops:
        if model.is_legal(op):
            model.apply(op)
            kept.append(op)
    return kept


def _simpler_variants(op: Op) -> List[Op]:
    """Candidate payload simplifications, roughly most-aggressive first."""
    values = op.values
    if not values:
        return []
    out: List[Op] = []
    halved = tuple(float(round(v / 2.0)) for v in values)
    if halved != values:
        out.append(Op(op.kind, op.key, halved))
    if len(values) == 2 and values[1] > values[0]:
        out.append(Op(op.kind, op.key, (values[0], values[0])))  # collapse
        mid = float(round(values[0] + (values[1] - values[0]) / 2.0))
        if values[0] <= mid < values[1]:
            out.append(Op(op.kind, op.key, (values[0], mid)))  # narrow
    rounded = tuple(float(round(v)) for v in values)
    if rounded != values:
        out.append(Op(op.kind, op.key, rounded))
    return out


def shrink_ops(
    ops: Sequence[Op],
    divergence: DivergenceRecord,
    *,
    targets: Sequence[str] = DEFAULT_TARGETS,
    factories: Optional[Dict[str, Callable[[], FuzzTarget]]] = None,
    max_attempts: int = 2000,
) -> Tuple[List[Op], DivergenceRecord]:
    """Delta-debug ``ops`` down to a minimal sequence still diverging on
    ``divergence.target``.  Returns (shrunk ops, their divergence)."""
    budget = [max_attempts]
    best: Dict[str, object] = {"divergence": divergence}

    def fails(candidate: Sequence[Op]) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        # check_every=1 is strictly more sensitive than any larger stride,
        # so the original failure cannot escape through check scheduling.
        outcome = run_sequence(
            candidate, targets=targets, check_every=1, factories=factories
        )
        if outcome.divergence is not None and (
            outcome.divergence.target == divergence.target
        ):
            best["divergence"] = outcome.divergence
            return True
        return False

    # Phase 0: everything after the divergence is irrelevant.
    current = normalize_ops(list(ops[: divergence.op_index + 1]))
    if not fails(current):  # pragma: no cover - divergence should reproduce
        return list(ops), divergence

    # Phase 1: ddmin over op subsets.
    granularity = 2
    while len(current) >= 2 and budget[0] > 0:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current) and budget[0] > 0:
            candidate = normalize_ops(current[:start] + current[start + chunk:])
            if len(candidate) < len(current) and fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(current))

    # Phase 2: narrow the numeric payloads of the survivors.
    improved = True
    while improved and budget[0] > 0:
        improved = False
        for index in range(len(current)):
            for variant in _simpler_variants(current[index]):
                candidate = current[:index] + [variant] + current[index + 1:]
                if fails(candidate):
                    current = candidate
                    improved = True
                    break

    return current, best["divergence"]  # type: ignore[return-value]


# -- reproducers -------------------------------------------------------------


def reproducer_dict(
    ops: Sequence[Op],
    divergence: DivergenceRecord,
    *,
    targets: Sequence[str] = DEFAULT_TARGETS,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    return {
        "version": 1,
        "seed": seed,
        "targets": list(targets),
        "divergence": divergence.to_json(),
        "ops": [op.to_json() for op in ops],
    }


def save_reproducer(path: str, data: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def load_reproducer(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        data: Dict[str, Any] = json.load(handle)
    return data


def replay_reproducer(
    path: str,
    *,
    factories: Optional[Dict[str, Callable[[], FuzzTarget]]] = None,
) -> RunOutcome:
    """Re-run a saved reproducer at full check sensitivity."""
    data = load_reproducer(path)
    ops = [Op.from_json(entry) for entry in data["ops"]]
    targets = data.get("targets") or list(DEFAULT_TARGETS)
    return run_sequence(ops, targets=targets, check_every=1, factories=factories)


# -- top-level fuzz entry point ----------------------------------------------


@dataclass
class FuzzReport:
    """Everything one fuzz campaign produced."""

    config: FuzzConfig
    targets: Tuple[str, ...]
    outcome: RunOutcome
    ops: List[Op]
    shrunk_ops: Optional[List[Op]] = None
    shrunk_divergence: Optional[DivergenceRecord] = None

    @property
    def ok(self) -> bool:
        return self.outcome.ok

    def reproducer(self) -> Dict[str, Any]:
        assert self.outcome.divergence is not None, "no divergence to dump"
        if self.shrunk_ops is not None and self.shrunk_divergence is not None:
            return reproducer_dict(
                self.shrunk_ops,
                self.shrunk_divergence,
                targets=self.targets,
                seed=self.config.seed,
            )
        return reproducer_dict(
            self.ops,
            self.outcome.divergence,
            targets=self.targets,
            seed=self.config.seed,
        )


def fuzz(
    config: FuzzConfig,
    *,
    targets: Sequence[str] = DEFAULT_TARGETS,
    check_every: int = 32,
    shrink: bool = True,
    factories: Optional[Dict[str, Callable[[], FuzzTarget]]] = None,
) -> FuzzReport:
    """Generate ops per ``config``, run them, and shrink any failure."""
    ops = generate_ops(config)
    outcome = run_sequence(
        ops, targets=targets, check_every=check_every, factories=factories
    )
    report = FuzzReport(config, tuple(targets), outcome, ops)
    if outcome.divergence is not None and shrink:
        report.shrunk_ops, report.shrunk_divergence = shrink_ops(
            ops, outcome.divergence, targets=targets, factories=factories
        )
    return report
