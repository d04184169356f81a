"""Core of the repro lint engine: findings, rules, contexts, suppression.

The engine is deliberately small: a rule is a class with a ``code``, a
``severity`` and a ``check(ctx)`` generator; the driver parses each file
once, hands every registered rule the same :class:`LintContext` (source,
AST, repo-relative path), filters findings through inline
``# repro: noqa[RULE]`` pragmas, and returns them sorted.  Everything
project-specific — which paths are replay-critical, where numpy may be
imported, which modules are hot — lives in :mod:`repro.analysis.project`,
so rules stay generic visitors over a declarative contract.
"""

from __future__ import annotations

import ast
import enum
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

__all__ = [
    "Severity",
    "Finding",
    "LintContext",
    "Rule",
    "register",
    "all_rules",
    "rule_catalog",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "PARSE_ERROR_RULE",
]

#: Pseudo-rule code attached to findings produced by unparseable files.
PARSE_ERROR_RULE = "RA000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_ ,]+)\])?", re.IGNORECASE
)


class Severity(enum.Enum):
    """Per-rule severity; both levels fail the lint gate, warnings exist so
    downstream tooling can triage machine-readable output."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule firing at a position in a file.

    ``path`` is repo-relative with forward slashes so fingerprints are
    stable across checkouts and platforms.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR

    @property
    def fingerprint(self) -> str:
        """A finding's identity across runs, for matching JSON artifacts.

        Line/column are deliberately excluded: unrelated edits move code
        around, and an identity keyed on positions would rot instantly.
        """
        return f"{self.rule}::{self.path}::{self.message}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass
class LintContext:
    """Everything a rule may inspect about one file."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    _noqa: Optional[Dict[int, frozenset[str]]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def noqa_pragmas(self) -> Dict[int, frozenset[str]]:
        """Map of line number -> codes suppressed by a ``# repro: noqa``
        pragma on that line (empty frozenset = bare noqa, suppress all).

        Pragmas are recognized only inside real comment tokens, so a
        docstring *mentioning* the pragma syntax (as this module's does)
        neither suppresses findings nor counts as a suppression for RA104.
        """
        if self._noqa is None:
            self._noqa = _collect_noqa_pragmas(self.source)
        return self._noqa

    @property
    def module_path(self) -> str:
        """The path from the ``repro/`` package root down, e.g.
        ``repro/core/intervals.py`` — scope tables in
        :mod:`repro.analysis.project` are keyed on this form so rules work
        identically on checkouts, installed trees, and test fixtures."""
        parts = Path(self.path).as_posix().split("/")
        for i, part in enumerate(parts):
            if part == "repro":
                return "/".join(parts[i:])
        return Path(self.path).as_posix()

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
    ) -> Finding:
        return Finding(
            rule=rule.code,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=rule.severity,
        )

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``check`` receives one :class:`LintContext` per file and yields
    findings; rules that only apply to part of the tree should consult
    ``ctx.module_path`` against the scope tables in
    :mod:`repro.analysis.project` and return early when out of scope.
    """

    code: str = "RA999"
    name: str = "unnamed"
    severity: Severity = Severity.ERROR
    description: str = ""
    #: Rules auditing the suppression mechanism itself (RA104) opt out of
    #: *bare* pragmas (ones without a ``[CODE]`` list) — otherwise a stale
    #: bare pragma could suppress the very finding that reports it.  An
    #: explicit ``noqa[CODE]`` naming the rule still works.
    bare_noqa_exempt: bool = False

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError

    @classmethod
    def summary(cls) -> Dict[str, str]:
        return {
            "code": cls.code,
            "name": cls.name,
            "severity": cls.severity.value,
            "description": cls.description,
        }


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry; codes are
    unique, re-registration of the same code is a programming error."""
    if rule_cls.code in _REGISTRY and _REGISTRY[rule_cls.code] is not rule_cls:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registered rules, sorted by code.  ``select``
    restricts to the given codes (unknown codes raise, so typos in
    ``--select`` fail loudly instead of silently linting nothing)."""
    _ensure_rules_loaded()
    if select is not None:
        unknown = sorted(set(select) - set(_REGISTRY))
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
        codes = sorted(set(select))
    else:
        codes = sorted(_REGISTRY)
    return [_REGISTRY[code]() for code in codes]


def rule_catalog() -> List[Dict[str, str]]:
    """Stable, JSON-friendly description of every registered rule."""
    _ensure_rules_loaded()
    return [_REGISTRY[code].summary() for code in sorted(_REGISTRY)]


def _ensure_rules_loaded() -> None:
    # Rule modules self-register on import; importing here (not at module
    # top) keeps engine importable from the rule modules themselves.
    from repro.analysis import rules as _rules  # noqa: F401

    del _rules


def _suppressed_codes(text: str) -> Optional[frozenset[str]]:
    """Return the codes suppressed by ``# repro: noqa`` pragmas in
    ``text`` — an empty frozenset means "suppress everything" (bare noqa),
    ``None`` means no pragma present.  Multiple pragmas on one line union
    their codes; any bare pragma wins."""
    matches = list(_NOQA_RE.finditer(text))
    if not matches:
        return None
    union: Set[str] = set()
    for match in matches:
        codes = match.group("codes")
        if codes is None:
            return frozenset()
        union.update(c.strip().upper() for c in codes.split(",") if c.strip())
    return frozenset(union)


def _collect_noqa_pragmas(source: str) -> Dict[int, frozenset[str]]:
    """Per-line suppression map, built from real comment tokens only.

    Falls back to raw-line scanning when the token stream is malformed
    (the AST parsed, so this is a backstop, not the normal path)."""
    pragmas: Dict[int, frozenset[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                codes = _suppressed_codes(tok.string)
                if codes is not None:
                    pragmas[tok.start[0]] = codes
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pragmas = {}
        for lineno, line in enumerate(source.splitlines(), 1):
            codes = _suppressed_codes(line)
            if codes is not None:
                pragmas[lineno] = codes
    return pragmas


def _bare_noqa_exempt(rule_code: str) -> bool:
    rule_cls = _REGISTRY.get(rule_code)
    return rule_cls is not None and rule_cls.bare_noqa_exempt


def apply_noqa(ctx: LintContext, findings: Iterable[Finding]) -> List[Finding]:
    """Drop findings whose source line carries a matching noqa pragma."""
    pragmas = ctx.noqa_pragmas()
    kept: List[Finding] = []
    for f in findings:
        codes = pragmas.get(f.line)
        if codes is None:
            kept.append(f)
        elif not codes and _bare_noqa_exempt(f.rule):
            kept.append(f)  # bare noqa cannot silence the noqa auditor
        elif codes and f.rule not in codes:
            kept.append(f)
        # bare noqa (empty set) or a matching code suppresses the finding
    return kept


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one in-memory source blob under a virtual path.

    This is the core entry point — files, fixtures, and tests all route
    through it, so rule behaviour cannot differ between production runs
    and the fixture suite.
    """
    active = list(rules) if rules is not None else all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule=PARSE_ERROR_RULE,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = LintContext(path=path, source=source, tree=tree)
    findings: List[Finding] = []
    for rule in active:
        findings.extend(rule.check(ctx))
    findings = apply_noqa(ctx, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(
    path: Path,
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint a file on disk, reporting it under its ``root``-relative path."""
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    return lint_source(path.read_text(encoding="utf-8"), rel, rules)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    seen: List[Path] = []
    for p in paths:
        if p.is_dir():
            seen.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            seen.append(p)
    deduped: List[Path] = []
    known: Set[Path] = set()
    for p in seen:
        key = p.resolve()
        if key not in known:
            known.add(key)
            deduped.append(p)
    return iter(deduped)


def lint_paths(
    paths: Sequence[Path],
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every python file under ``paths``; the workhorse behind
    ``repro lint``."""
    active = list(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, root, active))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
