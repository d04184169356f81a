"""Engine-level tests for the lint framework: registry, suppression,
fingerprints, file walking, the JSON artifact.  Rule *behaviour* is covered
per-rule in test_analysis_rules.py; here we exercise the machinery the
rules plug into."""

import json

import pytest

from repro.analysis import (
    Finding,
    Severity,
    all_rules,
    lint_paths,
    lint_source,
    rule_catalog,
    render_json,
)
from repro.analysis.engine import PARSE_ERROR_RULE, iter_python_files


VIRTUAL = "src/repro/core/fake_module.py"


def by_rule(findings, code):
    return [f for f in findings if f.rule == code]


class TestRegistry:
    def test_catalog_contains_all_project_rules(self):
        codes = {entry["code"] for entry in rule_catalog()}
        assert {"RA001", "RA002", "RA004", "RA005", "RA006"} <= codes
        assert {"RA101", "RA102", "RA103"} <= codes

    def test_all_rules_sorted_and_instantiated(self):
        rules = all_rules()
        codes = [r.code for r in rules]
        assert codes == sorted(codes)
        assert all(isinstance(r.severity, Severity) for r in rules)

    def test_select_restricts_and_rejects_unknown(self):
        only = all_rules(["RA002"])
        assert [r.code for r in only] == ["RA002"]
        with pytest.raises(ValueError, match="RA777"):
            all_rules(["RA777"])


class TestSuppression:
    def test_noqa_with_matching_code_suppresses(self):
        src = "import numpy  # repro: noqa[RA002]\n"
        assert lint_source(src, VIRTUAL, all_rules(["RA002"])) == []

    def test_noqa_with_other_code_does_not_suppress(self):
        src = "import numpy  # repro: noqa[RA001]\n"
        assert len(by_rule(lint_source(src, VIRTUAL), "RA002")) == 1

    def test_bare_noqa_suppresses_everything(self):
        src = "import numpy  # repro: noqa\n"
        assert lint_source(src, VIRTUAL) == []

    def test_noqa_accepts_multiple_codes(self):
        src = "import numpy  # repro: noqa[RA001, RA002]\n"
        assert lint_source(src, VIRTUAL, all_rules(["RA002"])) == []

    def test_plain_flake8_noqa_is_not_ours(self):
        src = "import numpy  # noqa\n"
        assert len(by_rule(lint_source(src, VIRTUAL), "RA002")) == 1


class TestParseErrors:
    def test_syntax_error_becomes_ra000(self):
        findings = lint_source("def broken(:\n", VIRTUAL)
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
        assert "syntax error" in findings[0].message


class TestFingerprints:
    def test_fingerprint_excludes_position(self):
        a = Finding("RA002", "p.py", 1, 0, "msg")
        b = Finding("RA002", "p.py", 99, 4, "msg")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != Finding("RA001", "p.py", 1, 0, "msg").fingerprint


class TestDriver:
    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import numpy\n")
        (pkg / "good.py").write_text("x = 1\n")
        (pkg / "notes.txt").write_text("import numpy\n")
        findings = lint_paths([tmp_path / "src"], tmp_path)
        assert [f.path for f in by_rule(findings, "RA002")] == [
            "src/repro/core/bad.py"
        ]

    def test_iter_python_files_dedupes(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        files = list(iter_python_files([f, tmp_path]))
        assert len(files) == 1 and files[0].resolve() == f.resolve()

    def test_render_json_is_the_ci_contract(self):
        findings = [Finding("RA002", VIRTUAL, 1, 0, "import of numpy")]
        payload = json.loads(render_json(findings, 5))
        assert payload["tool"] == "repro lint"
        assert payload["files_checked"] == 5
        assert payload["summary"] == {"findings": 1, "errors": 1, "warnings": 0}
        assert payload["findings"][0]["fingerprint"] == findings[0].fingerprint
        assert {r["code"] for r in payload["rules"]} >= {"RA001", "RA006"}

    def test_render_json_order_is_deterministic(self):
        """The JSON artifact is diffed across CI runs: findings must sort
        on (path, line, rule, col, message) no matter the input order."""
        findings = [
            Finding("RA002", "b.py", 3, 0, "zz"),
            Finding("RA001", "a.py", 9, 0, "mm"),
            Finding("RA002", "a.py", 9, 4, "mm"),
            Finding("RA002", "a.py", 9, 1, "nn"),
            Finding("RA002", "a.py", 9, 1, "mm"),
        ]
        import itertools

        rendered = {
            render_json(list(perm), 2)
            for perm in itertools.permutations(findings)
        }
        assert len(rendered) == 1, "output depends on input order"
        ordered = [
            (f["path"], f["line"], f["rule"], f["col"], f["message"])
            for f in json.loads(rendered.pop())["findings"]
        ]
        assert ordered == sorted(ordered)
