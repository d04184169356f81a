"""Self-check: the shipped tree must satisfy its own lint gate.

This is the test that keeps ``repro lint`` honest — every rule runs over
``src/repro`` exactly as CI does, and any finding fails the suite.  It also pins the CLI contract the CI job and
docs rely on (exit codes, --list-rules, JSON shape)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
    )


class TestRepoIsClean:
    def test_tree_passes_its_own_gate(self):
        findings = lint_paths([SRC], REPO_ROOT)
        assert not findings, "lint findings:\n" + "\n".join(
            f.render() for f in findings
        )

    def test_cli_exits_zero_on_head(self):
        proc = run_cli("lint")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "lint clean" in proc.stdout


class TestCliContract:
    def test_exit_nonzero_on_seeded_violation_of_each_rule(self, tmp_path):
        seeded = {
            "RA001": ("core/t1.py", "import time\nstamp = time.time()\n"),
            "RA002": ("core/t2.py", "import numpy\n"),
            "RA004": ("workload/t4.py", "t = x.group_table()\nt.append(1)\n"),
            "RA005": ("core/t5.py", "def f(iv, x):\n    return x == iv.lo\n"),
            "RA006": ("dstruct/treap.py", "class N:\n    pass\n"),
        }
        for code, (rel, src) in seeded.items():
            target = tmp_path / code / "src" / "repro" / rel
            target.parent.mkdir(parents=True)
            target.write_text(src)
            proc = run_cli(
                "lint", "--root", str(tmp_path / code), "--select", code
            )
            assert proc.returncode == 1, (
                f"{code} did not fail the gate: {proc.stdout}{proc.stderr}"
            )
            assert code in proc.stdout

    def test_json_format_and_artifact_shape(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy\n")
        proc = run_cli("lint", "--root", str(tmp_path), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["tool"] == "repro lint"
        assert payload["summary"]["findings"] >= 1
        assert any(f["rule"] == "RA002" for f in payload["findings"])

    def test_list_rules_prints_catalog(self):
        proc = run_cli("lint", "--list-rules")
        assert proc.returncode == 0
        for code in ("RA001", "RA002", "RA004", "RA005", "RA006"):
            assert code in proc.stdout

    def test_unknown_select_fails_loudly(self):
        proc = run_cli("lint", "--select", "RA999")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_info_lists_analysis_subsystem(self):
        proc = run_cli("info")
        assert proc.returncode == 0
        assert "analysis" in proc.stdout
        rule_count = len(all_rules())
        assert str(rule_count) in proc.stdout


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_lint_rejects_missing_path(fmt, tmp_path):
    proc = run_cli(
        "lint", "--root", str(tmp_path), "no/such/dir", "--format", fmt
    )
    assert proc.returncode == 2
    assert "no such path" in proc.stderr
