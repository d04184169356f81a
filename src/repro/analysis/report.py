"""Rendering lint results: human terminal output and machine JSON.

The JSON document is the CI artifact (uploaded by the ``lint`` job), so
its shape is part of the tool's contract: ``findings`` carries every
finding, ``summary`` the counts the gate is decided on, ``rules`` the
catalog the run used.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.analysis.engine import Finding, Severity, rule_catalog

__all__ = ["render_human", "render_json", "render_catalog", "summarize"]


def summarize(findings: Sequence[Finding]) -> Dict[str, int]:
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    return {
        "findings": len(findings),
        "errors": errors,
        "warnings": len(findings) - errors,
    }


def render_human(findings: Sequence[Finding]) -> str:
    """Compiler-style lines for the findings, then a one-line summary."""
    lines: List[str] = [f.render() for f in findings]
    if findings:
        summary = summarize(findings)
        lines.append(
            f"{summary['findings']} finding(s) "
            f"({summary['errors']} error(s), {summary['warnings']} warning(s))"
        )
    else:
        lines.append("lint clean")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    # Total order on every key the entries can differ in — the JSON is a
    # CI artifact diffed across runs, so two runs over the same tree must
    # be byte-identical whatever order the findings arrive in.
    entries = sorted(
        (f.to_json() for f in findings),
        key=lambda e: (
            str(e["path"]),
            int(str(e["line"])),
            str(e["rule"]),
            int(str(e["col"])),
            str(e["message"]),
        ),
    )
    payload: Dict[str, object] = {
        "tool": "repro lint",
        "version": 1,
        "files_checked": files_checked,
        "summary": summarize(findings),
        "rules": rule_catalog(),
        "findings": entries,
    }
    return json.dumps(payload, indent=2)


def render_catalog(fmt: str = "human") -> str:
    """The ``--list-rules`` output."""
    catalog = rule_catalog()
    if fmt == "json":
        return json.dumps({"rules": catalog}, indent=2)
    lines: List[str] = []
    for entry in catalog:
        lines.append(f"{entry['code']}  {entry['name']}  [{entry['severity']}]")
        lines.append(f"       {entry['description']}")
    return "\n".join(lines)
