"""The rule catalog: project invariants RA001, RA002, RA004–RA006 + generic
hygiene.

Each rule encodes a contract the fuzzer (`repro.check`) can only probe
dynamically; here the same contract is enforced structurally at review
time.  Scopes and allowlists live in :mod:`repro.analysis.project` — the
rules themselves are plain AST visitors and know nothing about the repo
layout beyond what that module declares.

Static analysis is approximate by design: these rules favour *no false
positives on idiomatic code* over completeness (e.g. RA001 flags direct
iteration over a set display, not iteration over a variable that happens
to hold a set).  Justified exceptions use ``# repro: noqa[CODE]``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.analysis import project
from repro.analysis.engine import Finding, LintContext, Rule, Severity, register

__all__ = [
    "DeterminismRule",
    "KernelIsolationRule",
    "SnapshotImmutabilityRule",
    "FloatEqualityRule",
    "SlotsRule",
    "MutableDefaultRule",
    "BareExceptRule",
    "ShadowedBuiltinRule",
    "StaleNoqaRule",
]


# --------------------------------------------------------------------------
# shared AST helpers


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local binding names to qualified import targets.

    ``import time as t`` -> ``{"t": "time"}``; ``from time import time``
    -> ``{"time": "time.time"}``.  Used to resolve call sites back to the
    module-level function they name regardless of aliasing.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                binding = name.asname or name.name.split(".")[0]
                aliases[binding] = name.name if name.asname else name.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _qualname(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a call target to a dotted qualified name, or None for local
    names the import table doesn't know about."""
    parts: List[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    base = aliases.get(cur.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _decorator_name(dec: ast.expr) -> Optional[str]:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


# --------------------------------------------------------------------------
# RA001 — determinism on the replay-equivalence plane


_WALLCLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

_GLOBAL_RANDOM_FUNCS: FrozenSet[str] = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "seed",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "weibullvariate",
        "vonmisesvariate",
        "triangular",
        "getrandbits",
        "randbytes",
    }
)


@register
class DeterminismRule(Rule):
    code = "RA001"
    name = "determinism"
    severity = Severity.ERROR
    description = (
        "replay-critical code (core/, operators/, runtime/replay.py, durability/, "
        "obs/) must not read wall clocks, use the shared global RNG or unseeded "
        "random.Random(), or iterate directly over sets (wall clocks only: "
        "modules in WALLCLOCK_METADATA_ALLOWLIST are exempt; monotonic clocks "
        "only: modules under MONOTONIC_CLOCK_SCOPE are exempt)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not project.in_scope(ctx.module_path, project.DETERMINISM_SCOPE):
            return
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                qual = _qualname(node.func, aliases)
                if qual is None:
                    continue
                if qual in _WALLCLOCK_CALLS or qual.startswith("secrets."):
                    if (
                        qual in _WALLCLOCK_CALLS
                        and ctx.module_path in project.WALLCLOCK_METADATA_ALLOWLIST
                    ):
                        # Metadata-only carve-out (see project.py): the
                        # timestamp never feeds recovery or replay decisions.
                        continue
                    if (
                        qual in project.MONOTONIC_CLOCK_CALLS
                        and project.in_scope(
                            ctx.module_path, project.MONOTONIC_CLOCK_SCOPE
                        )
                    ):
                        # Monotonic-only carve-out (see project.py): span
                        # durations are instrumentation, never replayed;
                        # wall clocks and RNG still fire here.
                        continue
                    yield ctx.finding(
                        self, node, f"non-deterministic call {qual}() in replay-critical code"
                    )
                elif qual.startswith("random.") and qual[len("random.") :] in _GLOBAL_RANDOM_FUNCS:
                    yield ctx.finding(
                        self,
                        node,
                        f"{qual}() uses the shared global RNG; draw from a seeded "
                        "random.Random(seed) instance instead",
                    )
                elif qual == "random.Random" and not node.args and not node.keywords:
                    yield ctx.finding(
                        self,
                        node,
                        "random.Random() without a seed is OS-entropy seeded; pass an "
                        "explicit seed in replay-critical code",
                    )
                elif qual == "random.SystemRandom":
                    yield ctx.finding(
                        self, node, "random.SystemRandom is inherently non-deterministic"
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iteration(ctx, gen.iter)

    def _check_iteration(self, ctx: LintContext, it: ast.expr) -> Iterator[Finding]:
        if isinstance(it, (ast.Set, ast.SetComp)):
            yield ctx.finding(
                self,
                it,
                "iteration over a set display is hash-order dependent; sort it or use "
                "an ordered container",
            )
        elif (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id in ("set", "frozenset")
        ):
            yield ctx.finding(
                self,
                it,
                f"iteration over {it.func.id}(...) is hash-order dependent; sort it or "
                "use an ordered container",
            )


# --------------------------------------------------------------------------
# RA002 — kernel isolation


@register
class KernelIsolationRule(Rule):
    code = "RA002"
    name = "kernel-isolation"
    severity = Severity.ERROR
    description = (
        "numpy may be imported only by the kernel allowlist "
        "(fastpath/kernels.py, histogram/kmeans.py); everyone else goes through "
        "repro.fastpath.kernels.get_numpy()"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        allowed = ctx.module_path in project.NUMPY_IMPORT_ALLOWLIST
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name == "numpy" or name.name.startswith("numpy."):
                        if not allowed:
                            yield ctx.finding(
                                self,
                                node,
                                f"import of {name.name} outside the kernel allowlist; "
                                "route numpy access through repro.fastpath.kernels",
                            )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module == "numpy" or node.module.startswith("numpy."):
                    if not allowed:
                        yield ctx.finding(
                            self,
                            node,
                            f"import from {node.module} outside the kernel allowlist; "
                            "route numpy access through repro.fastpath.kernels",
                        )
                elif node.module == project.KERNEL_HANDLE_MODULE and not allowed:
                    for name in node.names:
                        if name.name.startswith("_"):
                            yield ctx.finding(
                                self,
                                node,
                                f"private kernel handle {name.name} imported from "
                                f"{project.KERNEL_HANDLE_MODULE}; use the public "
                                "get_numpy()/MIN_VECTOR API",
                            )


# --------------------------------------------------------------------------
# RA004 — snapshot immutability


_MUTATORS: FrozenSet[str] = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "add",
        "discard",
    }
)


@register
class SnapshotImmutabilityRule(Rule):
    code = "RA004"
    name = "snapshot-immutability"
    severity = Severity.ERROR
    description = (
        "group_table() returns a shared cache and a table's col_b/cols_ba/"
        "cols_bc are its live sorted columns; mutating either (append/sort/"
        "item assignment/...) corrupts every later reader"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            yield from self._check_scope(ctx, scope)

    @staticmethod
    def _local_walk(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope's tree without descending into nested functions
        (each nested function is its own scope and checked separately)."""
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield child
            yield from SnapshotImmutabilityRule._local_walk(child)

    def _check_scope(self, ctx: LintContext, scope: ast.AST) -> Iterator[Finding]:
        # pass 1: any name ever bound to a snapshot call or a live column
        # (or a part of one, or an alias) in this scope is tainted for the
        # whole scope (conservative: no kill on rebind)
        tainted: Set[str] = set()
        for node in self._local_walk(scope):
            if isinstance(node, ast.Assign) and self._is_snapshot_expr(node.value, tainted):
                for target in node.targets:
                    self._taint_target(target, tainted)
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and self._is_snapshot_expr(node.value, tainted)
            ):
                self._taint_target(node.target, tainted)
        # pass 2: flag mutations of tainted names or of snapshot calls
        for node in self._local_walk(scope):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS and self._is_snapshot_expr(
                    node.func.value, tainted
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f".{node.func.attr}() mutates a shared snapshot: "
                        "group_table()'s cache or a table's live sorted column; "
                        "copy it first",
                    )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                if self._is_snapshot_expr(node.value, tainted):
                    yield ctx.finding(
                        self,
                        node,
                        "item assignment into a shared snapshot: "
                        "group_table()'s cache or a table's live sorted column; "
                        "copy it first",
                    )

    @staticmethod
    def _taint_target(target: ast.expr, tainted: Set[str]) -> None:
        if isinstance(target, ast.Name):
            tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    tainted.add(elt.id)

    @classmethod
    def _is_snapshot_expr(cls, node: ast.expr, tainted: Set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.Subscript):
            return cls._is_snapshot_expr(node.value, tainted)
        if isinstance(node, ast.Attribute):
            return node.attr in project.SNAPSHOT_ATTRIBUTES
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr in project.SNAPSHOT_METHODS
        return False


# --------------------------------------------------------------------------
# RA005 — float equality on interval endpoints


@register
class FloatEqualityRule(Rule):
    code = "RA005"
    name = "endpoint-float-equality"
    severity = Severity.ERROR
    description = (
        "== / != against interval endpoints (.lo/.hi) outside the canonical "
        "comparators in repro.core.intervals; exact equality is only sound for "
        "verbatim-copied endpoints"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module_path in project.FLOAT_EQ_ALLOWLIST:
            return
        helpers = ", ".join(project.CANONICAL_COMPARATORS)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[i], operands[i + 1]):
                    if isinstance(side, ast.Attribute) and side.attr in ("lo", "hi"):
                        yield ctx.finding(
                            self,
                            node,
                            f"float equality against .{side.attr}; use the canonical "
                            f"comparators ({helpers}) from repro.core.intervals",
                        )
                        break


# --------------------------------------------------------------------------
# RA006 — __slots__ on hot-path classes


_SLOTS_EXEMPT_BASES: FrozenSet[str] = frozenset(
    {
        "Protocol",
        "Exception",
        "BaseException",
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "TypedDict",
        "NamedTuple",
    }
)


@register
class SlotsRule(Rule):
    code = "RA006"
    name = "hot-path-slots"
    severity = Severity.ERROR
    description = (
        "classes in hot-path modules must declare __slots__ (or be "
        "@dataclass(slots=True)): instances are allocated in bulk and attribute "
        "typos must fail loudly"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module_path not in project.HOTPATH_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and not self._has_slots(node):
                yield ctx.finding(
                    self,
                    node,
                    f"hot-path class {node.name} does not declare __slots__",
                )

    @staticmethod
    def _has_slots(cls: ast.ClassDef) -> bool:
        for base in cls.bases:
            if isinstance(base, ast.Subscript):  # Protocol[T], Generic[T], ...
                base = base.value
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            if name in _SLOTS_EXEMPT_BASES or (name and name.endswith("Error")):
                return True
        for dec in cls.decorator_list:
            if _decorator_name(dec) == "dataclass" and isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        return True
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                    return True
        return False


# --------------------------------------------------------------------------
# generic hygiene


@register
class MutableDefaultRule(Rule):
    code = "RA101"
    name = "mutable-default-arg"
    severity = Severity.WARNING
    description = "mutable default argument ([] / {} / set()) shared across calls"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                        yield ctx.finding(
                            self, default, f"mutable default argument in {node.name}()"
                        )
                    elif (
                        isinstance(default, ast.Call)
                        and isinstance(default.func, ast.Name)
                        and default.func.id in ("list", "dict", "set")
                    ):
                        yield ctx.finding(
                            self, default, f"mutable default argument in {node.name}()"
                        )


@register
class BareExceptRule(Rule):
    code = "RA102"
    name = "bare-except"
    severity = Severity.WARNING
    description = "bare `except:` swallows KeyboardInterrupt/SystemExit"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self, node, "bare except:; catch Exception (or narrower) instead"
                )


_SHADOWABLE_BUILTINS: FrozenSet[str] = frozenset(
    {
        "list",
        "dict",
        "set",
        "tuple",
        "id",
        "type",
        "input",
        "object",
        "filter",
        "map",
        "sum",
        "str",
        "int",
        "float",
        "bool",
        "bytes",
        "hash",
        "next",
        "iter",
        "vars",
        "zip",
        "open",
        "print",
    }
)


@register
class StaleNoqaRule(Rule):
    """RA104 — a ``# repro: noqa`` pragma that suppresses nothing.

    Stale suppressions are worse than none: they read as "a finding was
    judged acceptable here" when in fact the finding no longer exists (the
    code was fixed, the rule's scope changed, or the code never fired), and
    they silently swallow the *next* genuine finding on the line.  The rule
    re-runs every other registered rule on the file and flags each
    suppressed code that did not fire on its line.

    A bare pragma cannot silence this rule (``bare_noqa_exempt``); an
    explicit ``noqa[RA104]`` on the line still can, so deliberate
    placeholders remain expressible.
    """

    code = "RA104"
    name = "stale-noqa"
    severity = Severity.WARNING
    bare_noqa_exempt = True
    description = (
        "a # repro: noqa pragma whose suppressed rule(s) no longer fire on "
        "that line; remove the stale suppression"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        pragmas = ctx.noqa_pragmas()
        if not pragmas:
            return
        from repro.analysis.engine import all_rules

        fired: Dict[int, Set[str]] = {}
        for rule in all_rules():
            if rule.code == self.code:
                continue
            for f in rule.check(ctx):
                fired.setdefault(f.line, set()).add(f.rule)
        for lineno in sorted(pragmas):
            codes = pragmas[lineno]
            hit = fired.get(lineno, set())
            if not codes:  # bare noqa
                if not hit:
                    yield self._at(
                        ctx, lineno, "stale suppression: bare `# repro: noqa` "
                        "suppresses nothing on this line"
                    )
                continue
            for code in sorted(codes - {self.code}):
                if code not in hit:
                    yield self._at(
                        ctx,
                        lineno,
                        f"stale suppression: `# repro: noqa[{code}]` suppresses "
                        "nothing on this line",
                    )

    def _at(self, ctx: LintContext, lineno: int, message: str) -> Finding:
        text = ctx.line_text(lineno)
        col = text.find("#")
        return Finding(
            rule=self.code,
            path=ctx.path,
            line=lineno,
            col=col if col >= 0 else 0,
            message=message,
            severity=self.severity,
        )


@register
class ShadowedBuiltinRule(Rule):
    code = "RA103"
    name = "shadowed-builtin"
    severity = Severity.WARNING
    description = "binding a name that shadows a python builtin (list, dict, id, ...)"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in _SHADOWABLE_BUILTINS:
                    yield ctx.finding(
                        self, node, f"assignment shadows builtin {node.id!r}"
                    )
            elif isinstance(node, ast.arg) and node.arg in _SHADOWABLE_BUILTINS:
                yield ctx.finding(
                    self, node, f"argument shadows builtin {node.arg!r}"
                )
