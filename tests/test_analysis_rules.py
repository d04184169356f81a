"""Per-rule fixture tests: every project rule must (a) fire on a seeded
violation, (b) stay quiet on the idiomatic counterpart and (c) be
suppressible with an inline ``# repro: noqa[CODE]``.
Fixtures lint in-memory sources under virtual paths, exercising exactly the
entry point (``lint_source``) production runs use."""

import pytest

from repro.analysis import all_rules, lint_source

CORE = "src/repro/core/fake_module.py"
OBS = "src/repro/obs/fake_module.py"
KERNELS = "src/repro/fastpath/kernels.py"
HOTPATH = "src/repro/dstruct/treap.py"
ELSEWHERE = "src/repro/workload/fake_gen.py"

RA004_BAD = """\
def drain(index):
    table = index.group_table()
    table.append(None)
"""

RA004_GOOD = """\
def drain(index):
    table = list(index.group_table())
    table.append(None)
"""

# (code, path, firing source, quiet source, substring expected in message)
CASES = [
    pytest.param(
        "RA001",
        CORE,
        "import time\nstamp = time.time()\n",
        "import random\nrng = random.Random(42)\nx = rng.random()\n",
        "non-deterministic call time.time()",
        id="RA001-wallclock",
    ),
    pytest.param(
        "RA001",
        CORE,
        "import random\nx = random.random()\n",
        "import random\nrng = random.Random(0)\nx = rng.random()\n",
        "shared global RNG",
        id="RA001-global-rng",
    ),
    pytest.param(
        "RA001",
        CORE,
        "import random\nrng = random.Random()\n",
        "import random\nrng = random.Random(7)\n",
        "without a seed",
        id="RA001-unseeded",
    ),
    pytest.param(
        "RA001",
        CORE,
        "for x in {1, 2, 3}:\n    pass\n",
        "for x in sorted({1, 2, 3}):\n    pass\n",
        "hash-order dependent",
        id="RA001-set-iteration",
    ),
    pytest.param(
        "RA002",
        CORE,
        "import numpy as np\n",
        "from repro.fastpath.kernels import get_numpy\nnp = get_numpy()\n",
        "outside the kernel allowlist",
        id="RA002-import",
    ),
    pytest.param(
        "RA002",
        CORE,
        "from numpy import ndarray\n",
        "from repro.fastpath.kernels import get_numpy\n",
        "outside the kernel allowlist",
        id="RA002-import-from",
    ),
    pytest.param(
        "RA002",
        ELSEWHERE,
        "from repro.fastpath.kernels import _np\n",
        "from repro.fastpath.kernels import get_numpy\n",
        "private kernel handle",
        id="RA002-private-handle",
    ),
    pytest.param(
        "RA004",
        ELSEWHERE,
        RA004_BAD,
        RA004_GOOD,
        "mutates a shared snapshot",
        id="RA004-append",
    ),
    pytest.param(
        "RA004",
        ELSEWHERE,
        "keys, rows = table.col_b\nrows[0] = None\n",
        "rows = list(table.col_b[1])\nrows[0] = None\n",
        "item assignment into a shared snapshot",
        id="RA004-setitem",
    ),
    pytest.param(
        "RA004",
        ELSEWHERE,
        "def f(table, b):\n    xs, rows = table.cols_bc[b]\n    xs.insert(0, b)\n",
        "def f(table, b):\n    xs = list(table.cols_bc[b][0])\n    xs.insert(0, b)\n",
        "mutates a shared snapshot",
        id="RA004-column-bucket",
    ),
    pytest.param(
        "RA004",
        ELSEWHERE,
        "table.cols_ba[1.0] = None\n",
        # flat_snapshot() returns a fresh copy: nothing to protect.
        "snap = tree.flat_snapshot()\nsnap[1].append(None)\n",
        "item assignment into a shared snapshot",
        id="RA004-live-column-not-flat-snapshot",
    ),
    pytest.param(
        "RA005",
        CORE,
        "def f(iv, x):\n    return x == iv.hi\n",
        "from repro.core.intervals import endpoints_equal\n"
        "def f(iv, x):\n    return endpoints_equal(x, iv.hi)\n",
        "float equality against .hi",
        id="RA005-endpoint-eq",
    ),
    pytest.param(
        "RA006",
        HOTPATH,
        "class Node:\n    def __init__(self):\n        self.key = 0\n",
        "class Node:\n    __slots__ = ('key',)\n"
        "    def __init__(self):\n        self.key = 0\n",
        "does not declare __slots__",
        id="RA006-missing-slots",
    ),
    pytest.param(
        "RA101",
        ELSEWHERE,
        "def f(xs=[]):\n    return xs\n",
        "def f(xs=None):\n    return xs or []\n",
        "mutable default argument",
        id="RA101-mutable-default",
    ),
    pytest.param(
        "RA102",
        ELSEWHERE,
        "try:\n    pass\nexcept:\n    pass\n",
        "try:\n    pass\nexcept Exception:\n    pass\n",
        "bare except",
        id="RA102-bare-except",
    ),
    pytest.param(
        "RA103",
        ELSEWHERE,
        "list = [1]\n",
        "items = [1]\n",
        "shadows builtin",
        id="RA103-shadowed-builtin",
    ),
]


def run(code, path, src):
    return lint_source(src, path, all_rules([code]))


CASES.append(
    pytest.param(
        "RA001",
        "src/repro/durability/checkpoint.py",
        "import random\nx = random.random()\n",
        # The metadata allowlist exempts exactly the wall-clock branch in
        # this one module (checkpoint created_at_unix); RNG still fires.
        "import time\nstamp = time.time()\n",
        "shared global RNG",
        id="RA001-durability-metadata-allowlist",
    )
)

CASES.append(
    pytest.param(
        "RA104",
        ELSEWHERE,
        # Nothing fires on this line, so the suppression is dead weight.
        "items = [1]  # repro: noqa[RA103]\n",
        # Here the pragma genuinely silences RA103 (shadowed builtin).
        "list = [1]  # repro: noqa[RA103]\n",
        "suppresses nothing",
        id="RA104-stale-noqa",
    )
)


@pytest.mark.parametrize("code,path,bad,good,fragment", CASES)
class TestEveryRule:
    def test_fires_on_violation(self, code, path, bad, good, fragment):
        findings = run(code, path, bad)
        assert findings, f"{code} did not fire on its fixture"
        assert all(f.rule == code for f in findings)
        assert fragment in findings[0].message

    def test_quiet_on_idiomatic_code(self, code, path, bad, good, fragment):
        assert run(code, path, good) == []

    def test_noqa_suppresses(self, code, path, bad, good, fragment):
        findings = run(code, path, bad)
        lines = bad.splitlines()
        for f in findings:
            lines[f.line - 1] += f"  # repro: noqa[{code}]"
        assert run(code, path, "\n".join(lines) + "\n") == []


class TestScoping:
    """Rules must respect the project contract tables, not fire globally."""

    def test_ra001_only_on_the_replay_plane(self):
        src = "import time\nstamp = time.time()\n"
        assert run("RA001", CORE, src)
        assert run("RA001", "src/repro/operators/fake.py", src)
        assert run("RA001", "src/repro/runtime/replay.py", src)
        assert run("RA001", ELSEWHERE, src) == []
        assert run("RA001", "src/repro/runtime/pipeline.py", src) == []

    def test_ra001_covers_the_durability_package(self):
        src = "import time\nstamp = time.time()\n"
        assert run("RA001", "src/repro/durability/wal.py", src)
        assert run("RA001", "src/repro/durability/recovery.py", src)
        assert run("RA001", "src/repro/durability/manager.py", src)

    def test_ra001_metadata_allowlist_exempts_only_wall_clocks(self):
        checkpoint = "src/repro/durability/checkpoint.py"
        assert run("RA001", checkpoint, "import time\nx = time.time()\n") == []
        # Everything else RA001 polices still fires in the allowlisted module.
        assert run("RA001", checkpoint, "import random\nx = random.random()\n")
        assert run("RA001", checkpoint, "out = [x for x in {1, 2}]\n")

    def test_ra001_covers_the_obs_package(self):
        assert run("RA001", OBS, "import time\nx = time.time()\n")
        assert run("RA001", OBS, "import random\nx = random.random()\n")
        assert run("RA001", OBS, "out = [x for x in {1, 2}]\n")

    def test_ra001_obs_monotonic_clock_carveout(self):
        """obs/ may read monotonic clocks (span timing) but nothing else:
        wall clocks and datetime.now still fire, and the carve-out does
        not leak into core/."""
        for call in (
            "time.monotonic()",
            "time.monotonic_ns()",
            "time.perf_counter()",
            "time.perf_counter_ns()",
        ):
            src = f"import time\nx = {call}\n"
            assert run("RA001", OBS, src) == [], call
            # The same monotonic call is still banned on the replay plane.
            assert run("RA001", CORE, src), call
            assert run("RA001", "src/repro/durability/wal.py", src), call
        # Wall clocks stay banned in obs/ — only the monotonic subset is free.
        assert run("RA001", OBS, "import time\nx = time.time()\n")
        assert run("RA001", OBS, "import datetime\nx = datetime.datetime.now()\n")

    def test_ra001_covers_the_transport_package(self):
        """The shm data plane is on the replay-equivalence plane: RNG and
        set-iteration findings fire exactly as in core/."""
        transport = "src/repro/runtime/transport/fake_codec.py"
        assert run("RA001", transport, "import random\nx = random.random()\n")
        assert run("RA001", transport, "out = [x for x in {1, 2}]\n")

    def test_ra001_transport_monotonic_clock_carveout(self):
        """transport/ may read monotonic clocks (ring deadlines, grace
        windows) but wall clocks still fire, and the carve-out stays out
        of the rest of runtime/."""
        transport = "src/repro/runtime/transport/fake_ring.py"
        for call in ("time.monotonic()", "time.perf_counter()"):
            src = f"import time\nx = {call}\n"
            assert run("RA001", transport, src) == [], call
        assert run("RA001", transport, "import time\nx = time.time()\n")
        assert run(
            "RA001", transport, "import datetime\nx = datetime.datetime.now()\n"
        )

    def test_ra006_covers_transport_hotpath_modules(self):
        src = "class Plain:\n    pass\n"
        assert run("RA006", "src/repro/runtime/transport/shm.py", src)
        assert run("RA006", "src/repro/runtime/transport/frames.py", src)
        # worker.py is control-plane (one loop per process), not hot path.
        assert run("RA006", "src/repro/runtime/transport/worker.py", src) == []

    def test_ra002_allowlist_may_import_numpy(self):
        src = "import numpy as np\n"
        assert run("RA002", KERNELS, src) == []
        assert run("RA002", "src/repro/histogram/kmeans.py", src) == []
        assert run("RA002", CORE, src)

    def test_ra005_intervals_module_is_allowlisted(self):
        src = "def f(iv, x):\n    return x == iv.lo\n"
        assert run("RA005", "src/repro/core/intervals.py", src) == []
        assert run("RA005", CORE, src)

    def test_ra006_only_on_hotpath_modules(self):
        src = "class Plain:\n    pass\n"
        assert run("RA006", HOTPATH, src)
        assert run("RA006", ELSEWHERE, src) == []

    def test_ra006_exemptions(self):
        for src in (
            "from typing import Protocol\nclass View(Protocol):\n    pass\n",
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\nclass Row:\n    x: int = 0\n",
            "class BadThingError(Exception):\n    pass\n",
        ):
            assert run("RA006", HOTPATH, src) == [], src


class TestStaleNoqa:
    """RA104 audits the suppression mechanism itself."""

    def test_partially_stale_pragma_names_only_the_dead_codes(self):
        # RA103 fires (and is suppressed); RA001 never could here.
        src = "list = [1]  # repro: noqa[RA103,RA001]\n"
        findings = run("RA104", ELSEWHERE, src)
        assert len(findings) == 1
        assert "RA001" in findings[0].message
        assert "RA103" not in findings[0].message

    def test_stale_bare_noqa_is_flagged(self):
        findings = run("RA104", ELSEWHERE, "items = [1]  # repro: noqa\n")
        assert findings and "bare" in findings[0].message

    def test_useful_bare_noqa_is_quiet(self):
        assert run("RA104", ELSEWHERE, "list = [1]  # repro: noqa\n") == []

    def test_bare_noqa_cannot_silence_ra104(self):
        """A stale bare pragma must not suppress the finding reporting it —
        the auditor opts out of bare suppression (an explicit
        ``noqa[RA104]`` still works, exercised by the shared harness)."""
        findings = run("RA104", ELSEWHERE, "items = [1]  # repro: noqa\n")
        assert findings, "stale bare noqa suppressed its own report"

    def test_docstring_mention_is_not_a_pragma(self):
        src = '"""Docs mention  # repro: noqa[RA103]  syntax."""\nx = 1\n'
        assert run("RA104", ELSEWHERE, src) == []
