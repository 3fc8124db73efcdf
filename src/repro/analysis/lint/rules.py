"""The reprolint rule set.

Every rule encodes one invariant the codebase's tests can only catch
dynamically (and only when they happen to execute the violating line):

========  =============================================================
``RL001``  unseeded ``random`` / ``numpy.random`` entropy
``RL002``  wall-clock reads outside the observability layer
``RL003``  iteration over sets feeding ordered output
``RL004``  ``os.environ`` reads outside :mod:`repro.envflags`
``RL005``  clock discipline: no sim-hours/wall-seconds mixing,
           latency fields must declare their clock
``RL006``  optional-numpy hygiene: gated imports, guarded usage
``RL007``  every ``REPRO_*`` flag literal must be registered
``RL009``  store/service raise ``repro.exceptions`` types, not builtins
``RL010``  generated env-flag docs must match the registry
``RL011``  suppressions need a justification and a known code
========  =============================================================

Rules are deliberately syntactic (pure :mod:`ast`, no imports of the
checked code), so the pass runs anywhere the source tree does —
including the no-numpy CI job.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Sequence

from repro import envflags
from repro.analysis.lint.model import (
    SEVERITY_WARNING,
    FileContext,
    Finding,
    Rule,
)

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def module_alias_map(tree: ast.Module, modules: Sequence[str]) -> dict[str, str]:
    """Local names bound to any of ``modules`` by import statements.

    Maps the bound name to the canonical dotted module it refers to,
    covering ``import m``, ``import m as x``, ``import m.sub`` and
    ``from m import sub [as x]`` forms.
    """
    wanted = set(modules)
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                root = item.name.split(".")[0]
                if item.name in wanted:
                    aliases[item.asname or root] = item.name
                elif root in wanted and item.asname is None:
                    # ``import numpy.random`` binds ``numpy``.
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                full = f"{node.module}.{item.name}"
                if full in wanted or node.module in wanted:
                    aliases[item.asname or item.name] = full
    return aliases


def resolve_call_target(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Canonical dotted target of a call through the import alias map.

    ``np.random.default_rng(...)`` with ``np -> numpy`` resolves to
    ``numpy.random.default_rng``; returns ``None`` when the call's root
    is not a tracked import.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, tail = dotted.partition(".")
    canonical = aliases.get(head)
    if canonical is None:
        return None
    return f"{canonical}.{tail}" if tail else canonical


def iter_non_annotation_names(node: ast.AST) -> Iterator[ast.Name]:
    """Every Name node in ``node``, skipping annotation positions.

    With ``from __future__ import annotations`` in force, annotations are
    never evaluated at runtime, so a gated module may mention ``np`` in a
    signature without needing numpy installed.
    """
    if isinstance(node, ast.Name):
        yield node
        return
    for field_name, value in ast.iter_fields(node):
        if isinstance(node, ast.AnnAssign) and field_name == "annotation":
            continue
        if isinstance(node, ast.arg) and field_name == "annotation":
            continue
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and field_name == "returns"
        ):
            continue
        if isinstance(value, ast.AST):
            yield from iter_non_annotation_names(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    yield from iter_non_annotation_names(item)


# ----------------------------------------------------------------------
# RL001 — unseeded randomness
# ----------------------------------------------------------------------

_STDLIB_GLOBAL_RNG = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

_NUMPY_GLOBAL_RNG = frozenset(
    {
        "binomial",
        "choice",
        "exponential",
        "lognormal",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "uniform",
    }
)


class UnseededRandomRule(Rule):
    """Byte-identical decodes require every entropy source to be seeded."""

    code = "RL001"
    name = "unseeded-random"
    description = (
        "Calls into the process-global random/numpy.random state (or RNG "
        "constructors without a seed) make runs irreproducible; construct "
        "random.Random(seed) / numpy.random.default_rng(seed) instead."
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        aliases = module_alias_map(ctx.tree, ("random", "numpy", "numpy.random"))
        if not aliases:
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, aliases)
            if target is None:
                continue
            unseeded = not node.args and not node.keywords
            if target == "random.Random" and unseeded:
                findings.append(
                    self.finding(
                        ctx, node.lineno, "random.Random() constructed without a seed"
                    )
                )
            elif target == "random.SystemRandom":
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        "random.SystemRandom is OS entropy and can never be "
                        "reproduced; use random.Random(seed)",
                    )
                )
            elif (
                target.startswith("random.")
                and target.rpartition(".")[2] in _STDLIB_GLOBAL_RNG
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        f"{target}() uses the shared module-level RNG; "
                        "construct random.Random(seed) and call it there",
                    )
                )
            elif target in ("numpy.random.default_rng", "numpy.random.Generator"):
                if unseeded:
                    findings.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            "numpy.random.default_rng() without a seed is "
                            "irreproducible; pass an explicit seed",
                        )
                    )
            elif target == "numpy.random.RandomState" and unseeded:
                findings.append(
                    self.finding(
                        ctx, node.lineno, "numpy.random.RandomState() without a seed"
                    )
                )
            elif (
                target.startswith("numpy.random.")
                and target.rpartition(".")[2] in _NUMPY_GLOBAL_RNG
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        f"{target}() draws from numpy's global RNG; use a "
                        "seeded numpy.random.default_rng(seed) generator",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL002 — wall-clock reads outside the observability layer
# ----------------------------------------------------------------------

_CLOCK_CALLS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    """The wall clock has one read point: ``repro.observability``."""

    code = "RL002"
    name = "wall-clock-discipline"
    description = (
        "time.time()/perf_counter()/datetime.now() outside repro.observability "
        "creates a third, unlabelled clock; route wall-clock reads through "
        "repro.observability.tracing.wall_now() or stages.stage()."
    )
    scopes = ("src/repro",)
    exempt = ("src/repro/observability",)

    def check(self, ctx: FileContext) -> list[Finding]:
        aliases = module_alias_map(
            ctx.tree,
            (
                "time",
                "datetime",
                "time.monotonic",
                "time.monotonic_ns",
                "time.perf_counter",
                "time.perf_counter_ns",
                "time.process_time",
                "time.process_time_ns",
                "time.time",
                "time.time_ns",
                "datetime.datetime",
                "datetime.date",
            ),
        )
        if not aliases:
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, aliases)
            if target in _CLOCK_CALLS or (
                target is not None and target.rstrip("_ns") in _CLOCK_CALLS
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        f"wall-clock read {target}() outside repro.observability; "
                        "use repro.observability.tracing.wall_now()",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL003 — set iteration feeding ordered output
# ----------------------------------------------------------------------


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class SetIterationRule(Rule):
    """Set iteration order depends on (randomized) string hashing."""

    code = "RL003"
    name = "set-iteration-order"
    description = (
        "Iterating a set into ordered output (loops, list()/tuple()/join(), "
        "list or dict comprehensions) is nondeterministic across runs; wrap "
        "the set in sorted() first."
    )

    _MESSAGE = (
        "iteration over a set feeds ordered output; wrap it in sorted() "
        "to fix the order"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                findings.append(self.finding(ctx, node.iter.lineno, self._MESSAGE))
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        findings.append(
                            self.finding(ctx, generator.iter.lineno, self._MESSAGE)
                        )
            elif isinstance(node, ast.Call):
                consumes_order = (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple", "enumerate")
                ) or (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "join"
                )
                if consumes_order and any(_is_set_expr(arg) for arg in node.args):
                    findings.append(self.finding(ctx, node.lineno, self._MESSAGE))
        return findings


# ----------------------------------------------------------------------
# RL004 — environment reads outside the registry module
# ----------------------------------------------------------------------


class EnvReadRule(Rule):
    """``os.environ`` has one owner inside ``src/repro``: the flag registry."""

    code = "RL004"
    name = "env-read-containment"
    description = (
        "os.environ / os.getenv reads outside repro.envflags bypass the "
        "flag registry (defaults, docs, drift checking); resolve flags "
        "through repro.envflags.read()/enabled()."
    )
    scopes = ("src/repro",)
    exempt = ("src/repro/envflags.py",)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv", "putenv", "unsetenv")
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        f"os.{node.attr} outside repro.envflags; read flags "
                        "through repro.envflags",
                    )
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for item in node.names:
                    if item.name in ("environ", "getenv", "putenv", "unsetenv"):
                        findings.append(
                            self.finding(
                                ctx,
                                node.lineno,
                                f"importing os.{item.name} outside repro.envflags",
                            )
                        )
        return findings


# ----------------------------------------------------------------------
# RL005 — clock discipline (sim hours vs wall seconds)
# ----------------------------------------------------------------------

_HOURS_TOKEN = re.compile(r"(^|_)(sim_)?hours?($|_)")
_SECONDS_TOKEN = re.compile(r"(^|_)(wall_)?sec(ond)?s?($|_)")
_UNIT_TOKEN = re.compile(r"(^|_)(hours?|sec(ond)?s?|ms|millis|ns)($|_)")


def _identifiers(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


class ClockDisciplineRule(Rule):
    """Sim-hours and wall-seconds values never meet in one expression."""

    code = "RL005"
    name = "clock-discipline"
    description = (
        "An expression combining *_hours and *_seconds values conflates the "
        "simulated and wall clocks; convert explicitly first.  Latency "
        "fields must carry their clock in the name or next to a "
        "*_clock declaration."
    )
    scopes = ("src/repro",)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        flagged_lines: set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.BinOp, ast.Compare, ast.BoolOp)):
                continue
            if node.lineno in flagged_lines:
                continue
            names = set(_identifiers(node))
            sim_side = sorted(n for n in names if _HOURS_TOKEN.search(n))
            wall_side = sorted(n for n in names if _SECONDS_TOKEN.search(n))
            if sim_side and wall_side:
                flagged_lines.add(node.lineno)
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        f"expression mixes sim-hours value(s) {sim_side} with "
                        f"wall-seconds value(s) {wall_side}; convert explicitly "
                        "before combining clocks",
                    )
                )
        findings.extend(self._check_latency_fields(ctx))
        return findings

    def _check_latency_fields(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            fields: list[tuple[str, int]] = []
            declared: set[str] = set()
            for stmt in node.body:
                target: ast.expr | None = None
                if isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    declared.add(target.id)
                    fields.append((target.id, stmt.lineno))
            has_clock = any("clock" in name for name in declared)
            for name, lineno in fields:
                if "latency" not in name or "clock" in name:
                    continue
                if _UNIT_TOKEN.search(name) or has_clock:
                    continue
                findings.append(
                    self.finding(
                        ctx,
                        lineno,
                        f"latency field {name!r} declares no clock; suffix the "
                        "unit (_hours/_seconds) or add a latency_clock "
                        "attribute to the class",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL006 — optional-numpy hygiene
# ----------------------------------------------------------------------


def _imports_numpy(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Import):
        return any(item.name.split(".")[0] == "numpy" for item in stmt.names)
    if isinstance(stmt, ast.ImportFrom):
        return stmt.level == 0 and (stmt.module or "").split(".")[0] == "numpy"
    return False


def _gate_aliases(try_stmt: ast.Try) -> set[str]:
    """Names the module's numpy gate binds (``np`` in the usual pattern)."""
    aliases: set[str] = set()
    for stmt in try_stmt.body:
        if isinstance(stmt, ast.Import):
            for item in stmt.names:
                if item.name.split(".")[0] == "numpy":
                    aliases.add(item.asname or item.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom) and _imports_numpy(stmt):
            for item in stmt.names:
                aliases.add(item.asname or item.name)
    return aliases


def _has_none_guard(node: ast.AST, aliases: set[str]) -> bool:
    """Whether the subtree tests ``<alias> is None`` / ``is not None``."""
    for child in ast.walk(node):
        if not isinstance(child, ast.Compare):
            continue
        operands = [child.left, *child.comparators]
        has_alias = any(
            isinstance(op, ast.Name) and op.id in aliases for op in operands
        )
        has_none = any(
            isinstance(op, ast.Constant) and op.value is None for op in operands
        )
        if (
            has_alias
            and has_none
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in child.ops)
        ):
            return True
    return False


class OptionalNumpyRule(Rule):
    """Every numpy path needs a pure-python story (PR 1's core guarantee)."""

    code = "RL006"
    name = "optional-numpy"
    description = (
        "Unconditional `import numpy` outside the always-numpy backends "
        "breaks the no-numpy environment; gate it behind try/except "
        "ImportError (np = None) and guard usage with an `np is None` check."
    )
    scopes = ("src/repro",)
    exempt = ("src/repro/codec/backend/numpy_backend.py",)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        gate_aliases: set[str] = set()
        gated = False
        for stmt in ctx.tree.body:
            if _imports_numpy(stmt):
                findings.append(
                    self.finding(
                        ctx,
                        stmt.lineno,
                        "unconditional top-level numpy import; gate it behind "
                        "try/except ImportError with a None fallback",
                    )
                )
            elif isinstance(stmt, ast.Try):
                catches_import_error = any(
                    isinstance(handler.type, ast.Name)
                    and handler.type.id in ("ImportError", "ModuleNotFoundError")
                    for handler in stmt.handlers
                )
                if catches_import_error and any(
                    _imports_numpy(inner) for inner in stmt.body
                ):
                    gated = True
                    gate_aliases |= _gate_aliases(stmt)
        if gated and gate_aliases:
            findings.extend(self._check_guarded_usage(ctx, gate_aliases))
        return findings

    def _check_guarded_usage(
        self, ctx: FileContext, aliases: set[str]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(ctx, stmt, aliases, None))
            elif isinstance(stmt, ast.ClassDef):
                init_guarded = any(
                    isinstance(member, ast.FunctionDef)
                    and member.name == "__init__"
                    and _has_none_guard(member, aliases)
                    for member in stmt.body
                )
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        findings.extend(
                            self._check_function(
                                ctx, member, aliases, init_guarded or None
                            )
                        )
        return findings

    def _check_function(
        self,
        ctx: FileContext,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        aliases: set[str],
        class_guarded: bool | None,
    ) -> list[Finding]:
        uses = [
            name
            for name in iter_non_annotation_names(function)
            if name.id in aliases
        ]
        if not uses:
            return []
        if class_guarded or _has_none_guard(function, aliases):
            return []
        alias = sorted(aliases)[0]
        return [
            self.finding(
                ctx,
                function.lineno,
                f"{function.name}() dereferences the gated numpy alias "
                f"{alias!r} without an `{alias} is None` guard (here or in "
                "the class __init__)",
            )
        ]


# ----------------------------------------------------------------------
# RL007 — REPRO_* flags must be registered
# ----------------------------------------------------------------------

_FLAG_LITERAL = re.compile(r"^REPRO_[A-Z0-9_]+$")


class EnvFlagRegistryRule(Rule):
    """Every ``REPRO_*`` flag literal resolves against one registry."""

    code = "RL007"
    name = "env-flag-registry"
    description = (
        "A REPRO_* environment-variable literal that is not declared in "
        "repro.envflags has no default, no docs and no drift checking; "
        "register it there."
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _FLAG_LITERAL.match(node.value)
                and node.value not in envflags.REGISTRY
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        f"environment flag {node.value!r} is not registered in "
                        "repro.envflags",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL009 — exception discipline in store/service
# ----------------------------------------------------------------------

_BARE_EXCEPTIONS = frozenset(
    {"Exception", "IndexError", "KeyError", "RuntimeError", "TypeError", "ValueError"}
)


class ExceptionDisciplineRule(Rule):
    """Store/service APIs raise the library's exception family."""

    code = "RL009"
    name = "exception-discipline"
    description = (
        "repro.store / repro.service raising bare KeyError/ValueError/... "
        "breaks callers that catch DnaStorageError (the free_blocks bug "
        "class); raise StoreError/ServiceError instead."
    )
    scopes = ("src/repro/store", "src/repro/service")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: str | None = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _BARE_EXCEPTIONS:
                findings.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        f"bare {name} raised from the store/service layer; "
                        "raise a repro.exceptions type (StoreError, "
                        "ServiceError, ...) so callers can catch "
                        "DnaStorageError",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL010 — generated env-flag docs drift
# ----------------------------------------------------------------------


class EnvDocsRule(Rule):
    """``docs/ENV_FLAGS.md`` is generated; drift means a stale table."""

    code = "RL010"
    name = "env-docs-drift"
    description = (
        "docs/ENV_FLAGS.md must exactly match the repro.envflags registry; "
        "regenerate it with `python -m repro.analysis.lint --write-env-docs`."
    )
    project_level = True

    def check_project(self, root: Path, env_docs: Path) -> list[Finding]:
        try:
            rel = env_docs.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = env_docs.as_posix()
        expected = envflags.render_markdown()
        if not env_docs.exists():
            return [
                Finding(
                    code=self.code,
                    message="environment-flag table is missing; generate it "
                    "with `python -m repro.analysis.lint --write-env-docs`",
                    path=rel,
                    line=0,
                    severity=self.severity,
                )
            ]
        actual = env_docs.read_text(encoding="utf-8")
        if actual != expected:
            return [
                Finding(
                    code=self.code,
                    message="environment-flag table drifted from the "
                    "repro.envflags registry; regenerate it with "
                    "`python -m repro.analysis.lint --write-env-docs`",
                    path=rel,
                    line=0,
                    severity=self.severity,
                )
            ]
        return []


# ----------------------------------------------------------------------
# RL011 — suppression hygiene (enforced by the engine's comment parser)
# ----------------------------------------------------------------------


class SuppressionRule(Rule):
    """Inline suppressions must name a known rule and justify themselves.

    The engine's comment scanner emits these findings; the class exists
    so the code is registered, documented and listable.
    """

    code = "RL011"
    name = "suppression-hygiene"
    description = (
        "`# reprolint: disable=RLxxx -- <why>` needs a justification after "
        "` -- ` and must name registered rule codes; unjustified "
        "suppressions stay inactive."
    )

    def applies_to(self, rel: str) -> bool:
        return False


#: Every rule, in code order.  The engine instantiates the registry once.
ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    SetIterationRule(),
    EnvReadRule(),
    ClockDisciplineRule(),
    OptionalNumpyRule(),
    EnvFlagRegistryRule(),
    ExceptionDisciplineRule(),
    EnvDocsRule(),
    SuppressionRule(),
)

RULES_BY_CODE: dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "ClockDisciplineRule",
    "EnvDocsRule",
    "EnvFlagRegistryRule",
    "EnvReadRule",
    "ExceptionDisciplineRule",
    "OptionalNumpyRule",
    "SetIterationRule",
    "SuppressionRule",
    "UnseededRandomRule",
    "WallClockRule",
]
