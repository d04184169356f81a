"""End-to-end tests for the differential fuzzer: clean campaigns, conviction
of a deliberately broken implementation, shrinking, and reproducer replay."""

from dataclasses import replace

import pytest

from repro.check import ops as op_mod
from repro.check.ops import FuzzConfig, Op, generate_ops
from repro.check.runner import (
    fuzz,
    load_reproducer,
    normalize_ops,
    replay_reproducer,
    run_sequence,
    save_reproducer,
    shrink_ops,
)
from repro.check.targets import (
    DEFAULT_TARGETS,
    PIPELINE_CELLS,
    TARGET_FACTORIES,
    LazyTarget,
    TrackerTarget,
    cell_name,
)
from repro.core.hotspot_tracker import HotspotTracker
from repro.core.lazy_partition import LazyStabbingPartition
from repro.core.stabbing import canonical_stabbing_partition, stabbing_number
from repro.durability import DurabilityManager
from repro.engine.events import DataEvent, EventKind
from repro.fastpath import kernels
from repro.fastpath import select as select_probe
from repro.runtime import sharding
from repro.runtime.transport import frames


class RecalOffByOne(LazyStabbingPartition):
    """The lazy strategy with an off-by-one in the recalibration acceptance:
    it keeps partitions one whole group above the (1 + eps) * tau budget
    instead of rebuilding, so fragmentation accumulates past Lemma 3's bound."""

    def _recalibrate_or_rebuild(self):
        items = self._all_items()
        tau = stabbing_number(items, self._interval_of)
        self.recalibration_count += 1
        if len(self._groups) <= (1.0 + self._epsilon) * tau + 1:  # off by one
            self._tau0 = tau
            self._epoch += 1
            self._original_deletions = 0
            self._updates_since_recon = 0
            return
        self._install(canonical_stabbing_partition(items, self._interval_of))


BUGGY_LAZY = {"lazy": lambda: LazyTarget(partition_cls=RecalOffByOne)}


class BulkSkipsRebalance(HotspotTracker):
    """A tracker whose calls of more than one item forget to rebalance, so
    a bulk insert can leave a scattered group past the promotion bar (I1)."""

    def insert(self, *items):
        self._bulk = len(items) > 1
        super().insert(*items)

    def delete(self, *items):
        self._bulk = len(items) > 1
        super().delete(*items)

    def _rebalance(self):
        if not self._bulk:
            super()._rebalance()


BUGGY_TRACKER = {"tracker": lambda: TrackerTarget(tracker_cls=BulkSkipsRebalance)}

# Interval-domain-only workload with wide uniform intervals and heavy churn:
# deletions fragment groups (a wide member outlives its narrow co-members)
# fast enough to push |P| against the (1 + eps) * tau budget, where the
# broken acceptance above actually matters.  The clustered default workload
# stays far from the bound and would let the bug hide.
ADVERSARIAL = FuzzConfig(
    seed=0,
    n_ops=1_500,
    engine_fraction=0.0,
    uniform_interval_fraction=1.0,
    delete_fraction=0.5,
    churn=0.8,
    recent_window=20,
    max_live_intervals=40,
    param_change_fraction=0.05,
)


class TestCleanRuns:
    def test_default_targets_no_divergence(self):
        report = fuzz(FuzzConfig(seed=0, n_ops=400), check_every=16)
        assert report.ok, report.outcome.divergence
        assert report.outcome.ops_applied == 400
        assert report.outcome.check_rounds >= 400 // 16

    def test_adversarial_workload_clean_on_correct_code(self):
        report = fuzz(ADVERSARIAL, targets=["lazy"], check_every=1)
        assert report.ok, report.outcome.divergence

    def test_run_sequence_skips_illegal_ops(self):
        ops = [
            Op(op_mod.INSERT_INTERVAL, 0, (0.0, 5.0)),
            Op(op_mod.DELETE_INTERVAL, 99),  # never inserted
            Op(op_mod.DELETE_INTERVAL, 0),
        ]
        outcome = run_sequence(ops, targets=["lazy"])
        assert outcome.ok
        assert outcome.ops_applied == 2

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            run_sequence([], targets=["warp-drive"])


class LogsAtApply(DurabilityManager):
    """A manager that writes a data event's record at the sync before its
    batch is applied, not when it is submitted: log-at-apply, which a
    pipeline of one-event batches cannot tell from log-before-apply."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._deferred = []

    def log_event(self, event):
        if isinstance(event, DataEvent) and not self.replaying:
            self._deferred.append(event)
            return None
        return super().log_event(event)

    def sync(self):
        deferred, self._deferred = self._deferred, []
        for event in deferred:
            super().log_event(event)
        super().sync()


class TestDurabilityTarget:
    """The durable cells at both batch sizes: one event per batch, and the
    micro-batches a durable serve runs, where a crash can cut among records
    logged but not yet applied."""

    CONFIG = FuzzConfig(seed=3, n_ops=500, engine_fraction=1.0)

    @pytest.mark.parametrize("batch_size", [1, 24])
    def test_clean_on_correct_code(self, batch_size):
        report = fuzz(
            self.CONFIG, targets=[cell_name("inline", batch_size, True)], check_every=40,
        )
        assert report.ok, report.outcome.divergence
        assert report.outcome.ops_applied == 500

    def test_batches_of_24_by_default(self):
        name = cell_name("inline", 24, True)
        assert name in DEFAULT_TARGETS
        target = TARGET_FACTORIES[name]()
        try:
            assert target.pipeline.batch_size == 24
        finally:
            target.close()

    @pytest.mark.parametrize("batch_size, caught", [(1, False), (24, True)])
    def test_log_at_apply_is_caught_only_under_batches(self, monkeypatch, batch_size, caught):
        monkeypatch.setattr("repro.durability.DurabilityManager", LogsAtApply)
        report = fuzz(
            self.CONFIG, targets=[cell_name("inline", batch_size, True)], check_every=40,
            shrink=False,
        )
        assert report.ok is not caught
        if caught:
            assert "every op must log exactly one record" in report.outcome.divergence.message


def _struck(pipeline, counter):
    """What the batch fix-up removed, over all shards: ``rows_struck`` or
    ``queries_struck``."""
    counters = pipeline.metrics.snapshot()["counters"]
    return sum(value for name, value in counters.items() if name.endswith(f"/runtime/{counter}"))


class TestBatchedCells:
    """Every cell with batches of more than one event fuzzes both halves of
    the batch fix-up: the key grid makes in-batch joins, and subscription
    changes share the batches."""

    @pytest.mark.parametrize(
        "cell", [cell_name(*cell) for cell in PIPELINE_CELLS if cell[1] > 1]
    )
    def test_fuzz_smoke(self, cell):
        made = []

        def factory():
            made.append(TARGET_FACTORIES[cell]())
            return made[-1]

        report = fuzz(
            FuzzConfig(seed=1, n_ops=400), targets=[cell], shrink=False,
            factories={cell: factory},
        )
        assert report.ok, report.outcome.divergence
        # Read after the run closed the target, so a process-shm cell's
        # workers have shipped their last counts.
        assert _struck(made[0].pipeline, "rows_struck") > 0
        assert _struck(made[0].pipeline, "queries_struck") > 0

    def test_hot_groups_reach_the_vector_member_test(self, monkeypatch):
        """Select-join rangeC clusters on the interval ops' anchors, so a
        default-config run grows hot groups whose candidate windows reach
        the numpy window pass once its floor is lowered to ``MIN_VECTOR``
        (fuzz runs are far shorter than the floor's measured runs)."""
        if kernels.get_numpy() is None:
            pytest.skip("numpy is not importable")
        vector_passes = 0
        stab_windows = select_probe._stab_windows

        def counting(joined, kept, candidates, results):
            nonlocal vector_passes
            vector_passes += candidates >= select_probe.MIN_CANDIDATES
            return stab_windows(joined, kept, candidates, results)

        monkeypatch.setattr(select_probe, "_stab_windows", counting)
        monkeypatch.setattr(select_probe, "MIN_CANDIDATES", kernels.MIN_VECTOR)
        cell = cell_name("inline", 24, False)
        report = fuzz(FuzzConfig(seed=3, n_ops=3000), targets=[cell], shrink=False)
        assert report.ok, report.outcome.divergence
        assert vector_passes > 0

    def test_the_select_plane_row_strike_removes_rows(self, monkeypatch):
        """The key grid makes select joins inside a batch, so the select
        plane's row strike (one key lookup per event, a scan only when a
        row of that key may be hidden) is reached and removes rows."""
        struck = 0
        strike_select = sharding._strike_select

        def counting(parts, rows, positions, other):
            nonlocal struck
            removed = strike_select(parts, rows, positions, other)
            struck += removed
            return removed

        monkeypatch.setattr(sharding, "_strike_select", counting)
        cell = cell_name("inline", 24, False)
        report = fuzz(FuzzConfig(seed=3, n_ops=3000), targets=[cell], shrink=False)
        assert report.ok, report.outcome.divergence
        assert struck > 0


def _shift_r_inserts(encode):
    """A parent-side BATCH encoder that moves every R insert's ``b`` by 1.0,
    so the worker files the row where the matching delete cannot find it."""

    def encode_batch_frame(entries, **kwargs):
        shifted = [
            (seq, DataEvent(event.kind, "R", replace(event.row, b=event.row.b + 1.0)), where)
            if isinstance(event, DataEvent)
            and event.relation == "R"
            and event.kind is EventKind.INSERT
            else (seq, event, where)
            for seq, event, where in entries
        ]
        return encode(shifted, **kwargs)

    return encode_batch_frame


class TestProcessShmCell:
    """A worker's ERROR answer surfaces in the parent as a TransportError;
    the runner records it as the cell's divergence, so it is shrunk and
    dumped like a delta mismatch."""

    CELL = cell_name("process-shm", 8, False)

    def test_encoder_bug_is_caught_and_shrunk(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            frames, "encode_batch_frame", _shift_r_inserts(frames.encode_batch_frame)
        )
        report = fuzz(
            FuzzConfig(seed=1, n_ops=400, engine_fraction=1.0), targets=[self.CELL]
        )
        assert not report.ok, "the planted encoder bug escaped the fuzzer"
        assert report.outcome.divergence.target == self.CELL
        assert report.shrunk_ops is not None
        assert len(report.shrunk_ops) <= 6
        assert report.shrunk_divergence.target == self.CELL

        path = tmp_path / "repro.json"
        save_reproducer(str(path), report.reproducer())
        replayed = replay_reproducer(str(path))
        assert replayed.divergence is not None
        assert replayed.divergence.target == self.CELL
        monkeypatch.undo()
        assert replay_reproducer(str(path)).ok


class TestInjectedBug:
    """The acceptance gate for the whole subsystem: a planted off-by-one in
    ``LazyStabbingPartition`` must be caught and shrunk to a tiny reproducer."""

    def test_off_by_one_is_caught_and_shrunk(self, tmp_path):
        report = fuzz(
            ADVERSARIAL, targets=["lazy"], check_every=1, factories=BUGGY_LAZY
        )
        assert not report.ok, "the planted bug escaped the fuzzer"
        assert report.outcome.divergence.target == "lazy"
        assert "groups >" in report.outcome.divergence.message

        assert report.shrunk_ops is not None
        assert len(report.shrunk_ops) <= 12
        assert report.shrunk_divergence.target == "lazy"

        # The shrunk sequence still convicts the buggy implementation ...
        outcome = run_sequence(
            report.shrunk_ops, targets=["lazy"], check_every=1,
            factories=BUGGY_LAZY,
        )
        assert outcome.divergence is not None
        assert outcome.divergence.target == "lazy"
        # ... and passes against the correct one (it is the bug's fault,
        # not the sequence's).
        assert run_sequence(report.shrunk_ops, targets=["lazy"], check_every=1).ok

        # Reproducer JSON round-trips through save/replay.
        path = tmp_path / "repro.json"
        save_reproducer(str(path), report.reproducer())
        data = load_reproducer(str(path))
        assert data["version"] == 1
        assert data["seed"] == ADVERSARIAL.seed
        assert len(data["ops"]) == len(report.shrunk_ops)
        replayed = replay_reproducer(str(path), factories=BUGGY_LAZY)
        assert replayed.divergence is not None
        assert replayed.divergence.target == "lazy"
        assert replay_reproducer(str(path)).ok


class TestBulkTracker:
    """The tracker target applies each run of same-kind interval ops as one
    bulk call whatever the check stride, so a bulk-only bug found at the
    campaign stride is shrunk and replayed at stride 1."""

    CONFIG = FuzzConfig(seed=1, n_ops=400, engine_fraction=0.0)

    def test_bulk_path_clean_on_correct_code(self):
        report = fuzz(self.CONFIG, targets=["tracker"])
        assert report.ok, report.outcome.divergence

    def test_bulk_call_without_rebalance_is_caught(self, tmp_path):
        report = fuzz(self.CONFIG, targets=["tracker"], factories=BUGGY_TRACKER)
        assert not report.ok, "the planted bulk-path bug escaped the fuzzer"
        assert report.outcome.divergence.target == "tracker"
        assert report.shrunk_ops is not None
        assert len(report.shrunk_ops) <= 12
        path = tmp_path / "repro.json"
        save_reproducer(str(path), report.reproducer())
        replayed = replay_reproducer(str(path), factories=BUGGY_TRACKER)
        assert replayed.divergence is not None
        assert replayed.divergence.target == "tracker"
        assert replay_reproducer(str(path)).ok

    def test_a_finer_stride_convicts_no_later(self):
        # A sweep never cuts a run, so stride 1 sees every run a coarser
        # stride sees, each as soon as it is applied.
        ops = generate_ops(self.CONFIG)
        found = {
            stride: run_sequence(
                ops, targets=["tracker"], check_every=stride, factories=BUGGY_TRACKER
            ).divergence
            for stride in (1, 32)
        }
        assert found[1] is not None and found[32] is not None
        assert found[1].op_index <= found[32].op_index


class TestShrinking:
    def test_normalize_drops_dangling_ops(self):
        ops = [
            Op(op_mod.INSERT_INTERVAL, 0, (0.0, 5.0)),
            Op(op_mod.DELETE_INTERVAL, 1),  # dangling after removing insert 1
            Op(op_mod.DELETE_INTERVAL, 0),
            Op(op_mod.DELETE_INTERVAL, 0),  # double delete
            Op(op_mod.UNSUB, 3),
        ]
        assert normalize_ops(ops) == [ops[0], ops[2]]

    def test_shrink_preserves_failing_target(self):
        report = fuzz(
            ADVERSARIAL, targets=["lazy"], check_every=1, shrink=False,
            factories=BUGGY_LAZY,
        )
        assert not report.ok
        shrunk, divergence = shrink_ops(
            report.ops, report.outcome.divergence,
            targets=["lazy"], factories=BUGGY_LAZY,
        )
        assert divergence.target == "lazy"
        assert len(shrunk) <= report.outcome.divergence.op_index + 1
        # Minimality in the ddmin sense: dropping any single op (with
        # dependency closure) no longer reproduces the divergence.
        for index in range(len(shrunk)):
            candidate = normalize_ops(shrunk[:index] + shrunk[index + 1:])
            outcome = run_sequence(
                candidate, targets=["lazy"], check_every=1, factories=BUGGY_LAZY
            )
            assert (
                outcome.ok or outcome.divergence.target != "lazy"
                or len(candidate) == len(shrunk)
            )
