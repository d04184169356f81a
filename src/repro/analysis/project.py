"""Project contract tables consumed by the lint rules.

Rules in :mod:`repro.analysis.rules` are generic AST visitors; everything
that encodes *this* codebase's architecture — which planes must stay
deterministic for replay equivalence, where numpy may be touched, which
modules are allocation hot paths — is declared here, in one reviewable
place.  Paths are in ``module_path`` form (from the ``repro/`` package
root down, forward slashes), matching :attr:`LintContext.module_path`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

__all__ = [
    "DETERMINISM_SCOPE",
    "WALLCLOCK_METADATA_ALLOWLIST",
    "MONOTONIC_CLOCK_SCOPE",
    "MONOTONIC_CLOCK_CALLS",
    "NUMPY_IMPORT_ALLOWLIST",
    "KERNEL_HANDLE_MODULE",
    "SNAPSHOT_METHODS",
    "FLOAT_EQ_ALLOWLIST",
    "CANONICAL_COMPARATORS",
    "HOTPATH_MODULES",
    "in_scope",
]

#: RA001 — the replay-equivalence plane.  ``repro.check`` differential
#: fuzzing and ``runtime.replay`` both assume that feeding the same event
#: stream twice yields byte-identical deltas; any wall-clock read, shared
#: global RNG use, or set-order-dependent iteration here silently breaks
#: that.  Seeded ``random.Random(seed)`` instances are fine (the treap's
#: priorities are drawn from one).
DETERMINISM_SCOPE: Tuple[str, ...] = (
    "repro/core/",
    "repro/operators/",
    "repro/runtime/replay.py",
    "repro/durability/",
    "repro/obs/",
    # The shared-memory data plane: frames must encode/decode bit-stably
    # and ring traffic must never depend on RNG or set order, or the
    # process-shm backend silently diverges from the inline reference the
    # replay driver and the process-shm fuzz cell compare it against.
    "repro/runtime/transport/",
    # The wire layer under both: the bytes of a WAL record and of a frame.
    "repro/wire.py",
)

#: RA001 carve-out — modules inside :data:`DETERMINISM_SCOPE` that may read
#: wall clocks for *metadata only*, each with the argument that justifies
#: it.  The carve-out silences only the wall-clock branch of RA001; RNG and
#: set-iteration findings still fire in these modules.  Any new entry must
#: reproduce the argument: the timestamp is written into an artifact that
#: nothing on the recovery/replay path ever reads back (recovery selects
#: checkpoints by sequence number and validates by CRC — see
#: ``repro/durability/recovery.py``).
WALLCLOCK_METADATA_ALLOWLIST: Dict[str, str] = {
    "repro/durability/checkpoint.py": (
        "checkpoints record a created_at_unix timestamp for "
        "operator forensics only; recovery orders and selects checkpoints "
        "strictly by next_seq and never reads the timestamp"
    ),
}

#: RA001 carve-out for the observability package: ``repro/obs/`` is in
#: :data:`DETERMINISM_SCOPE` (span recorders and telemetry listeners run
#: inside replay-critical callbacks, so RNG and set-iteration findings
#: must fire there), but span timing needs a clock.  *Monotonic* clocks
#: only: durations are instrumentation that nothing on the replay or
#: recovery path ever reads back, while wall clocks (``time.time``,
#: ``datetime.now``) stay banned — an absolute timestamp invites exactly
#: the "compare to recorded time" logic that breaks replay equivalence.
#: ``repro/runtime/transport/`` earns the same carve-out for the opposite
#: reason: its monotonic reads implement *deadlines* (ring backpressure,
#: corruption grace windows, worker-response timeouts), not data.  No
#: clock value ever reaches a frame's bytes — timeouts only decide when
#: to raise — so replay equivalence is untouched; wall clocks stay banned.
#: ``repro/durability/manager.py`` rides the same argument as obs/: its
#: ``perf_counter`` reads time WAL appends and checkpoints purely for the
#: ``durability/*_seconds`` histograms — nothing on the recovery path ever
#: reads a duration back (recovery is driven by sequence numbers and CRCs).
MONOTONIC_CLOCK_SCOPE: Tuple[str, ...] = (
    "repro/obs/",
    "repro/runtime/transport/",
    "repro/durability/manager.py",
)

#: The clock calls :data:`MONOTONIC_CLOCK_SCOPE` exempts (a strict subset
#: of the RA001 wall-clock list).
MONOTONIC_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    }
)

#: RA002 — the only modules allowed to import numpy.  ``fastpath/kernels``
#: owns the import-once handle (gated by ``REPRO_FASTPATH_KERNEL``) and
#: ``histogram/kmeans`` vectorizes Lloyd iterations; everything else must
#: call through the public kernel API so the pure-python fallback stays a
#: one-switch decision.
NUMPY_IMPORT_ALLOWLIST: FrozenSet[str] = frozenset(
    {
        "repro/fastpath/kernels.py",
        "repro/histogram/kmeans.py",
    }
)

#: RA002 also bans importing the private ``_np`` handle out of this module;
#: consumers use :func:`repro.fastpath.kernels.get_numpy` instead.
KERNEL_HANDLE_MODULE = "repro.fastpath.kernels"

#: RA004 — methods whose return values are shared across calls, and
#: attributes that are live indexes: ``StabbingSetIndex.group_table`` hands
#: out a cache (until a partition callback invalidates it), and a table's
#: sorted columns are patched in place by every row write.  A caller
#: mutating either corrupts every later reader.  (``flat_snapshot`` is a copy.)
SNAPSHOT_METHODS: FrozenSet[str] = frozenset({"group_table"})
SNAPSHOT_ATTRIBUTES: FrozenSet[str] = frozenset({"col_b", "cols_ba", "cols_bc"})

#: RA005 — modules allowed to compare ``.lo``/``.hi`` with ``==``/``!=``,
#: each with the exactness argument that justifies it.  The rule points
#: everyone else at the canonical comparators in ``repro.core.intervals``
#: (``endpoints_equal`` / ``same_interval``).
#:
#: The argument that makes those comparators correct (and that any new
#: allowlist entry must reproduce): interval endpoints in this codebase are
#: only ever *copied*, never derived by arithmetic — ``Interval`` is frozen,
#: and values such as ``DynamicGroup.max_lo`` / ``min_hi`` are copied from
#: a member's ``lo``/``hi`` or the ends of its ``EndpointOrders`` columns
#: (see ``core/partition_base.py``), so an ``==`` there compares bit-identical
#: IEEE doubles and is exact.  Derived quantities (``s.b - r.b``, shifted
#: windows) must never be equality-compared against endpoints.
FLOAT_EQ_ALLOWLIST: Dict[str, str] = {
    "repro/core/intervals.py": (
        "home of the canonical comparators; the helpers themselves must "
        "spell out the raw == they encapsulate"
    ),
}

#: Names of the canonical comparator helpers (for the RA005 message).
CANONICAL_COMPARATORS: Tuple[str, ...] = ("endpoints_equal", "same_interval")

#: RA006 — modules on the per-event/per-key hot path, where instances are
#: created in bulk or attribute access dominates; classes here must declare
#: ``__slots__`` (or be ``@dataclass(slots=True)``) so a stray attribute
#: typo fails loudly and per-instance dicts don't bloat resident memory.
HOTPATH_MODULES: FrozenSet[str] = frozenset(
    {
        "repro/core/intervals.py",
        "repro/core/partition_base.py",
        "repro/dstruct/btree.py",
        "repro/dstruct/treap.py",
        "repro/dstruct/endpoint_orders.py",
        "repro/dstruct/interval_tree.py",
        "repro/dstruct/rtree.py",
        "repro/fastpath/kernels.py",
        "repro/fastpath/band.py",
        "repro/fastpath/select.py",
        "repro/runtime/batching.py",
        "repro/runtime/metrics.py",
        "repro/obs/tracing.py",
        # The shm transport sits on every process-mode batch round trip:
        # ring send/recv run per frame, the codec touches every row.
        "repro/runtime/transport/shm.py",
        "repro/runtime/transport/frames.py",
        # One Reader per decoded frame, WAL segment and record.
        "repro/wire.py",
    }
)


def in_scope(module_path: str, scope: Tuple[str, ...]) -> bool:
    """True if ``module_path`` falls under any prefix (or exact file) in
    ``scope``."""
    for entry in scope:
        if entry.endswith("/"):
            if module_path.startswith(entry):
                return True
        elif module_path == entry:
            return True
    return False
