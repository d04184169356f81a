"""The strict-typing gate for the hot paths.

``mypy --strict`` must pass on repro.core, repro.dstruct, repro.fastpath,
repro.runtime, repro.analysis, repro.obs, repro.durability, repro.check,
repro.bench and the repro.wire and repro.engine.table modules
(configuration in pyproject.toml —
the relaxed override loosens only ``disallow_untyped_calls`` for the
packages that deliberately call the not-yet-annotated engine/operator layer through an
``Any`` boundary).  mypy is a CI-only dependency; locally the mypy run
skips when it is not installed, and CI runs mypy directly as well.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

STRICT_PACKAGES = (
    "repro.core",
    "repro.dstruct",
    "repro.fastpath",
    "repro.runtime",
    "repro.analysis",
    "repro.obs",
    "repro.durability",
    "repro.check",
    "repro.bench",
)

#: Single modules under the same gate (``-m``, no ``.*`` glob).
STRICT_MODULES = ("repro.wire", "repro.engine.table")

#: Strict packages allowed to call into the unchecked engine/operator
#: layer (``disallow_untyped_calls = false``); everything else in the
#: gate must not grow such calls.
UNTYPED_CALL_CARVEOUT = (
    "repro.runtime.*",
    "repro.durability.*",
    "repro.check.*",
    "repro.bench.*",
    "repro.wire",
)


def test_mypy_config_declares_the_gate():
    """Independent of mypy being installed: pyproject must keep the strict
    override covering every gated package (the table CI enforces)."""
    import tomllib

    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    overrides = config["tool"]["mypy"]["overrides"]
    strict = next(o for o in overrides if o.get("strict"))
    for pkg in STRICT_PACKAGES:
        assert f"{pkg}.*" in strict["module"], f"{pkg} fell out of the gate"
    for mod in STRICT_MODULES:
        assert mod in strict["module"], f"{mod} fell out of the gate"
    relaxed = next(
        o for o in overrides if o.get("disallow_untyped_calls") is False
    )
    assert sorted(relaxed["module"]) == sorted(UNTYPED_CALL_CARVEOUT), (
        "only the declared packages may call the untyped engine/operator "
        "layer"
    )
    # The untyped-calls carve-out must stay a subset of the strict gate:
    # a module relaxed but not strict would silently be fully unchecked.
    for glob in UNTYPED_CALL_CARVEOUT:
        assert glob in strict["module"], glob
    # The shm transport (wire format + ring) must stay inside the strict
    # gate: none of the "unchecked" override globs may capture it, and the
    # same holds for the packages this gate just absorbed.
    import fnmatch

    unchecked = next(o for o in overrides if o.get("ignore_errors"))
    for mod in (
        "repro.runtime.transport.shm",
        "repro.runtime.transport.frames",
        "repro.runtime.transport.worker",
        "repro.durability.wal",
        "repro.durability.manager",
        "repro.wire",
        "repro.check.runner",
        "repro.bench.harness",
    ):
        assert any(fnmatch.fnmatch(mod, g) for g in strict["module"]), mod
        assert not any(fnmatch.fnmatch(mod, g) for g in unchecked["module"]), mod
    # A strict module inside an unchecked package (repro.engine.table under
    # repro.engine.*) stays checked only because the strict section sets
    # ignore_errors itself: mypy lets a named module beat a glob only for
    # the options both sections set.
    for mod in STRICT_MODULES:
        if any(fnmatch.fnmatch(mod, g) for g in unchecked["module"]):
            assert strict.get("ignore_errors") is False, mod


def test_strict_packages_pass_mypy():
    pytest.importorskip("mypy", reason="mypy is installed in CI, not the dev image")
    args = [sys.executable, "-m", "mypy"]
    for pkg in STRICT_PACKAGES:
        args += ["-p", pkg]
    for mod in STRICT_MODULES:
        args += ["-m", mod]
    proc = subprocess.run(args, cwd=REPO_ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
