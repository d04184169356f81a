"""repro.analysis — project-aware static analysis for the repro codebase.

An AST-based lint engine whose rules encode the contracts the rest of the
system relies on but can only test dynamically: replay determinism
(RA001), numpy kernel isolation (RA002), snapshot immutability (RA004),
exact-float endpoint comparison (RA005), ``__slots__`` on the hot paths
(RA006) and generic hygiene (RA1xx).  Exposed as the ``repro lint`` CLI
verb; see ``docs/ANALYSIS.md`` for the rule catalog and the
suppression workflow.
"""

from repro.analysis.engine import (
    Finding,
    LintContext,
    Rule,
    Severity,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    rule_catalog,
)
from repro.analysis.report import render_catalog, render_human, render_json

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "Severity",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "rule_catalog",
    "render_catalog",
    "render_human",
    "render_json",
]
