"""The paper-specific rules R1–R7.

Each rule protects one discipline the reproduction's correctness
arguments lean on; ``docs/static_analysis.md`` maps every rule to the
theorem or section it defends.  Rules are pure AST analyses — they
never import or execute the code under inspection.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .base import ModuleContext, Rule, register
from .findings import Finding, Severity

# ---------------------------------------------------------------------------
# R1 — accounting discipline
# ---------------------------------------------------------------------------

#: Names that look like hand-rolled work/time accounting.  Matched
#: against the full identifier (leading underscores stripped).
_COUNTER = re.compile(
    r"(?:num_|total_)?"
    r"(?:steps?|work|expansions?|evals?|evaluated|leaves(?:_evaluated)?)"
    r"(?:_this_\w+)?$"
)

#: Functions allowed to contain raw counter arithmetic: the accounting
#: chokepoints themselves.
_CHOKEPOINTS = frozenset({"record", "count_expansion"})


def _target_name(node: ast.AST) -> str:
    """The bare identifier being assigned: ``x`` or ``self.x`` -> ``x``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _imports_execution_trace(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(a.name == "ExecutionTrace" for a in node.names):
                return True
            if node.module and node.module.endswith("models.accounting"):
                return True
        elif isinstance(node, ast.Attribute):
            if node.attr == "ExecutionTrace":
                return True
    return False


@register
class AccountingRule(Rule):
    """R1: work must be charged through ``ExecutionTrace``.

    In ``core/`` and ``simulator/`` — the modules whose step counts the
    theorems quantify — incrementing a counter named like work/steps/
    expansions is hand-rolled accounting unless the module charges its
    work through :class:`repro.models.accounting.ExecutionTrace` or the
    increment *is* an accounting chokepoint (``record`` /
    ``count_expansion``).
    """

    name = "R1"
    title = "accounting discipline (charge work via ExecutionTrace)"
    severity = Severity.ERROR

    SCOPES = ("core/", "simulator/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.logical_path.startswith(self.SCOPES):
            return
        if _imports_execution_trace(ctx.tree):
            return
        owner = self.enclosing_functions(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
            ):
                continue
            name = _target_name(node.target).lstrip("_")
            if not _COUNTER.match(name):
                continue
            if owner.get(node.lineno, "") in _CHOKEPOINTS:
                continue
            yield ctx.finding(
                self,
                node,
                f"hand-rolled work counter {name!r}; charge basic steps "
                "through models.accounting.ExecutionTrace.record (or a "
                "count_expansion/record chokepoint)",
            )


# ---------------------------------------------------------------------------
# R2 — determinism
# ---------------------------------------------------------------------------

#: numpy.random names that are seedable / type-only and therefore fine.
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator",
     "PCG64", "Philox"}
)

#: Wall-clock attribute chains (suffix match on the dotted name).
_WALL_CLOCK_SUFFIXES = (
    "datetime.now", "datetime.utcnow", "date.today",
)


@register
class DeterminismRule(Rule):
    """R2: counted model paths must be deterministic and seeded.

    Forbids the stdlib ``random`` and ``time`` modules, the legacy
    global ``numpy.random.*`` API, unseeded ``default_rng()``, and
    wall-clock ``datetime`` calls — everywhere except the oracle
    runner, the executor runtime, the hang-injecting fault oracle and
    the bench harness, which deal in real elapsed time on purpose.
    """

    name = "R2"
    title = "determinism (seeded RNG only, no wall-clock)"
    severity = Severity.ERROR

    ALLOWED_PATHS = (
        "models/oracle_runner.py",
        "models/executors.py",
        "faults/oracle.py",
        "gateway/aio.py",
    )
    # core/shm/ exists to produce wall-clock numbers (like the bench
    # harness); its batches/values stay pinned to the serial arena by
    # the shm differential and golden suites.
    ALLOWED_PREFIXES = ("bench/", "core/shm/")

    def _exempt(self, ctx: ModuleContext) -> bool:
        return (
            ctx.logical_path in self.ALLOWED_PATHS
            or ctx.logical_path.startswith(self.ALLOWED_PREFIXES)
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if self._exempt(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.Attribute):
                yield from self._check_attribute(ctx, node)

    def _check_import(
        self, ctx: ModuleContext, node: ast.Import
    ) -> Iterator[Finding]:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random":
                yield ctx.finding(
                    self, node,
                    "stdlib 'random' is forbidden in counted model "
                    "paths; use a seeded np.random.default_rng",
                )
            elif root == "time":
                yield ctx.finding(
                    self, node,
                    "wall-clock 'time' is only allowed in "
                    "models/oracle_runner.py and bench/",
                )

    def _check_import_from(
        self, ctx: ModuleContext, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        module = node.module or ""
        root = module.split(".")[0]
        if node.level == 0 and root == "random":
            yield ctx.finding(
                self, node,
                "stdlib 'random' is forbidden in counted model paths; "
                "use a seeded np.random.default_rng",
            )
        elif node.level == 0 and root == "time":
            yield ctx.finding(
                self, node,
                "wall-clock 'time' is only allowed in "
                "models/oracle_runner.py and bench/",
            )
        elif module in ("numpy.random", "np.random"):
            for alias in node.names:
                if alias.name not in _NP_RANDOM_OK:
                    yield ctx.finding(
                        self, node,
                        f"legacy numpy.random.{alias.name} is "
                        "stateful/global; use a seeded default_rng",
                    )

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        callee = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else ""
        )
        if callee != "default_rng":
            return
        unseeded = not node.args and not node.keywords
        none_seed = (
            len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value is None
        )
        if unseeded or none_seed:
            yield ctx.finding(
                self, node,
                "unseeded default_rng(); every RNG must be constructed "
                "from an explicit seed",
            )

    def _check_attribute(
        self, ctx: ModuleContext, node: ast.Attribute
    ) -> Iterator[Finding]:
        dotted = self.dotted(node)
        if not dotted:
            return
        for prefix in ("np.random.", "numpy.random."):
            if dotted.startswith(prefix):
                leaf = dotted[len(prefix):].split(".")[0]
                if leaf not in _NP_RANDOM_OK:
                    yield ctx.finding(
                        self, node,
                        f"legacy numpy.random.{leaf} is stateful/"
                        "global; use a seeded default_rng",
                    )
                return
        if dotted.endswith(_WALL_CLOCK_SUFFIXES):
            yield ctx.finding(
                self, node,
                f"wall-clock call {dotted}() in a counted model path",
            )


# ---------------------------------------------------------------------------
# R3 — MsgKind dispatch exhaustiveness
# ---------------------------------------------------------------------------


def _msgkind_member(expr: ast.AST) -> Optional[str]:
    """``MsgKind.X`` (or ``messages.MsgKind.X``) -> ``"X"``."""
    if isinstance(expr, ast.Attribute):
        base = Rule.dotted(expr.value)
        if base == "MsgKind" or base.endswith(".MsgKind"):
            return expr.attr
    return None


def _positive_kind_test(test: ast.AST) -> Optional[Tuple[str, str]]:
    """``subj is/== MsgKind.X`` -> ``(subject_repr, "X")``."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return None
    if not isinstance(test.ops[0], (ast.Is, ast.Eq)):
        return None
    member = _msgkind_member(test.comparators[0])
    if member is None:
        return None
    subject = Rule.dotted(test.left) or ast.dump(test.left)
    return subject, member


@register
class ExhaustiveDispatchRule(Rule):
    """R3: MsgKind dispatches in ``simulator/`` must be exhaustive.

    An ``if``/``elif`` chain (or ``match``) that dispatches on message
    kind must either cover every :class:`MsgKind` member or end in an
    explicit ``else`` / ``case _`` reject branch, so adding a message
    type can never fall through silently.
    """

    name = "R3"
    title = "MsgKind dispatch exhaustiveness"
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.logical_path.startswith("simulator/"):
            return
        members = set(ctx.config.msgkind_members)
        elif_nodes = self._elif_children(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.If) and id(node) not in elif_nodes:
                yield from self._check_chain(ctx, node, members)
            elif isinstance(node, ast.Match):
                yield from self._check_match(ctx, node, members)

    @staticmethod
    def _is_elif(outer: ast.If) -> bool:
        """Is ``outer``'s orelse an ``elif`` (vs ``else:`` + nested if)?

        The AST represents both as ``orelse=[If]``; a real ``elif``
        keeps the outer statement's indentation, a nested ``if`` under
        ``else:`` is indented deeper.
        """
        return (
            len(outer.orelse) == 1
            and isinstance(outer.orelse[0], ast.If)
            and outer.orelse[0].col_offset == outer.col_offset
        )

    @classmethod
    def _elif_children(cls, tree: ast.Module) -> Set[int]:
        """ids of If nodes that are the elif-continuation of another If."""
        out: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and cls._is_elif(node):
                out.add(id(node.orelse[0]))
        return out

    def _check_chain(
        self, ctx: ModuleContext, head: ast.If, members: Set[str]
    ) -> Iterator[Finding]:
        covered: List[str] = []
        subjects: Set[str] = set()
        node: ast.stmt = head
        has_else = False
        while True:
            assert isinstance(node, ast.If)
            hit = _positive_kind_test(node.test)
            if hit is not None:
                subjects.add(hit[0])
                covered.append(hit[1])
            if self._is_elif(node):
                node = node.orelse[0]
                continue
            has_else = bool(node.orelse)
            break
        # Only chains genuinely dispatching on kind are in scope: at
        # least two positive MsgKind arms over a single subject.
        if len(covered) < 2 or len(subjects) != 1:
            return
        if has_else:
            return
        missing = members - set(covered)
        if missing:
            yield ctx.finding(
                self, head,
                "MsgKind dispatch is not exhaustive: missing "
                f"{', '.join(sorted(missing))} and no else branch "
                "(add the arms or an explicit reject)",
            )

    def _check_match(
        self, ctx: ModuleContext, node: ast.Match, members: Set[str]
    ) -> Iterator[Finding]:
        covered: Set[str] = set()
        kind_cases = 0
        for case in node.cases:
            pattern = case.pattern
            if isinstance(pattern, ast.MatchAs) and pattern.pattern is None:
                return  # wildcard `case _:` — explicit reject present
            if isinstance(pattern, ast.MatchValue):
                member = _msgkind_member(pattern.value)
                if member is not None:
                    kind_cases += 1
                    covered.add(member)
        if kind_cases < 2:
            return
        missing = members - covered
        if missing:
            yield ctx.finding(
                self, node,
                "MsgKind match is not exhaustive: missing "
                f"{', '.join(sorted(missing))} and no `case _` arm",
            )


# ---------------------------------------------------------------------------
# R4 — frozen payload dataclasses
# ---------------------------------------------------------------------------

_PAYLOAD_NAME = re.compile(r"(?:Message|Msg|Payload)$")
_MUTABLE_ANNOTATIONS = frozenset(
    {"List", "Dict", "Set", "list", "dict", "set", "bytearray"}
)


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = Rule.dotted(target)
        if dotted in ("dataclass", "dataclasses.dataclass"):
            return dec
    return None


@register
class FrozenPayloadRule(Rule):
    """R4: message/state payload dataclasses must be frozen.

    Messages are shared between virtual processors by reference; a
    mutable payload would let one processor rewrite history another
    already acted on.  Any dataclass named ``*Message``/``*Msg``/
    ``*Payload`` must be declared ``frozen=True`` (with ``eq`` left
    enabled) and must not carry mutable-typed fields.
    """

    name = "R4"
    title = "frozen payload dataclasses"
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _PAYLOAD_NAME.search(node.name):
                continue
            dec = _dataclass_decorator(node)
            if dec is None:
                continue
            if not self._is_frozen(dec):
                yield ctx.finding(
                    self, node,
                    f"payload dataclass {node.name!r} must be declared "
                    "@dataclass(frozen=True)",
                )
            yield from self._check_fields(ctx, node)

    @staticmethod
    def _is_frozen(dec: ast.AST) -> bool:
        if not isinstance(dec, ast.Call):
            return False
        for kw in dec.keywords:
            if kw.arg == "frozen":
                return (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                )
        return False

    def _check_fields(
        self, ctx: ModuleContext, node: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            ann = stmt.annotation
            base = (
                ann.value if isinstance(ann, ast.Subscript) else ann
            )
            name = (
                base.id if isinstance(base, ast.Name)
                else base.attr if isinstance(base, ast.Attribute)
                else ""
            )
            if name in _MUTABLE_ANNOTATIONS:
                field = _target_name(stmt.target)
                yield ctx.finding(
                    self, stmt,
                    f"payload field {field!r} has mutable type "
                    f"{name}; use a tuple/frozenset/Mapping view",
                )


# ---------------------------------------------------------------------------
# R5 — public-API hygiene
# ---------------------------------------------------------------------------


def _module_bindings(tree: ast.Module) -> Tuple[Set[str], bool]:
    """Names bound at module level, and whether a star-import occurs.

    Recurses through module-level ``if``/``try``/``with``/loop blocks
    but not into function or class bodies (their names are the binding).
    """
    bound: Set[str] = set()
    star = False

    def collect_target(node: ast.AST) -> None:
        if isinstance(node, ast.Name):
            bound.add(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                collect_target(elt)
        elif isinstance(node, ast.Starred):
            collect_target(node.value)

    def visit(stmts: Sequence[ast.stmt]) -> None:
        nonlocal star
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        star = True
                    else:
                        bound.add(alias.asname or alias.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    collect_target(target)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                collect_target(stmt.target)
            elif isinstance(stmt, (ast.If,)):
                visit(stmt.body)
                visit(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                visit(stmt.body)
                for handler in stmt.handlers:
                    visit(handler.body)
                visit(stmt.orelse)
                visit(stmt.finalbody)
            elif isinstance(stmt, (ast.With, ast.For, ast.While)):
                visit(stmt.body)
                if hasattr(stmt, "orelse"):
                    visit(stmt.orelse)

    visit(tree.body)
    return bound, star


def _find_all_assignment(
    tree: ast.Module,
) -> Optional[Tuple[ast.stmt, List[ast.expr]]]:
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = stmt.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    return stmt, list(value.elts)
                return stmt, []
    return None


@register
class PublicApiRule(Rule):
    """R5: ``__all__`` must exist in package inits and stay truthful.

    Every ``repro.*`` package ``__init__`` that binds public names must
    declare ``__all__``; every ``__all__`` entry (in any module) must
    be a string naming something actually bound at module level, with
    no duplicates.
    """

    name = "R5"
    title = "public-API hygiene (__all__ consistency)"
    severity = Severity.WARNING

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        bound, star = _module_bindings(ctx.tree)
        found = _find_all_assignment(ctx.tree)
        is_init = ctx.logical_path.endswith("__init__.py")
        public = {name for name in bound if not name.startswith("_")}
        if found is None:
            if is_init and public:
                yield ctx.finding(
                    self, ctx.tree.body[0] if ctx.tree.body else ctx.tree,
                    "package __init__ binds public names but defines "
                    "no __all__",
                )
            return
        stmt, elements = found
        seen: Set[str] = set()
        for element in elements:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                yield ctx.finding(
                    self, element, "__all__ entries must be string literals"
                )
                continue
            name = element.value
            if name in seen:
                yield ctx.finding(
                    self, element, f"duplicate __all__ entry {name!r}"
                )
            seen.add(name)
            if not star and name not in bound:
                yield ctx.finding(
                    self, element,
                    f"__all__ names {name!r} which is not bound in "
                    "the module",
                )


# ---------------------------------------------------------------------------
# R6 — no swallowed exceptions
# ---------------------------------------------------------------------------


@register
class SwallowedExceptionRule(Rule):
    """R6: exceptions must not be silently swallowed.

    A fault-injection suite is only trustworthy if failures surface:
    a ``try``/``except`` that catches everything (bare ``except:``) or
    whose handler body does nothing (only ``pass``, ``...`` or a bare
    string) converts an injected fault — or a real bug — into silence.
    Handle the exception, re-raise it, or narrow the catch to the
    types the code genuinely recovers from.
    """

    name = "R6"
    title = "swallowed exceptions (bare except / except-pass)"
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self, node,
                    "bare 'except:' catches everything (including "
                    "KeyboardInterrupt/SystemExit); name the exception "
                    "types",
                )
            if self._body_is_noop(node.body):
                yield ctx.finding(
                    self, node,
                    "exception handler swallows the error (body does "
                    "nothing); handle it, re-raise, or narrow the catch",
                )

    @staticmethod
    def _body_is_noop(body: Sequence[ast.stmt]) -> bool:
        """True when every handler statement is pass/Ellipsis/a string."""
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue
            return False
        return True


# ---------------------------------------------------------------------------
# R7 — clock discipline
# ---------------------------------------------------------------------------

#: ``time`` module functions that read a wall/monotonic clock.
_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
    "process_time_ns",
})


@register
class ClockDisciplineRule(Rule):
    """R7: raw clock reads belong to telemetry and the wallclock bench.

    Extends R2's determinism story to the *allowed* wall-clock
    modules: even where ``import time`` is legitimate (the oracle
    runtime measures real latencies), each raw ``time.time()`` /
    ``time.monotonic()`` / ``perf_counter()`` call site must be
    individually acknowledged with ``# lint: disable=R7``, so new
    timing code is pushed toward the telemetry recorder (logical
    clocks, replay-deterministic) instead of scattering ad-hoc clock
    reads.  ``repro.telemetry`` and ``repro.bench.wallclock`` — the
    two modules whose *job* is real time — are exempt wholesale.
    """

    name = "R7"
    title = "clock discipline (no raw clock reads outside telemetry)"
    severity = Severity.ERROR

    ALLOWED_PATHS = ("bench/wallclock.py",)
    ALLOWED_PREFIXES = ("telemetry/",)

    def _exempt(self, ctx: ModuleContext) -> bool:
        return (
            ctx.logical_path in self.ALLOWED_PATHS
            or ctx.logical_path.startswith(self.ALLOWED_PREFIXES)
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if self._exempt(ctx):
            return
        clock_aliases = self._clock_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                dotted = self.dotted(func)
                root, _, rest = dotted.partition(".")
                if root == "time" and rest in _CLOCK_FUNCS:
                    yield ctx.finding(
                        self, node,
                        f"raw clock read '{dotted}()'; route timing "
                        f"through repro.telemetry (or acknowledge with "
                        f"'# lint: disable=R7')",
                    )
            elif isinstance(func, ast.Name) and func.id in clock_aliases:
                yield ctx.finding(
                    self, node,
                    f"raw clock read '{func.id}()' (imported from "
                    f"'time'); route timing through repro.telemetry "
                    f"(or acknowledge with '# lint: disable=R7')",
                )

    @staticmethod
    def _clock_aliases(tree: ast.Module) -> Set[str]:
        """Local names bound to clock functions by ``from time import``."""
        aliases: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if (node.module or "").split(".")[0] != "time":
                continue
            for alias in node.names:
                if alias.name in _CLOCK_FUNCS:
                    aliases.add(alias.asname or alias.name)
        return aliases


# ---------------------------------------------------------------------------
# R12 — arena vectorisation discipline
# ---------------------------------------------------------------------------

#: Loop-variable / iterable name fragments that mark per-node iteration.
_PER_NODE_NAMES = re.compile(r"(?:^|_)(?:node|leaf|leaves|nodes)(?:_|$|s$)")


def _names_in(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _target_names(target: ast.AST) -> Iterator[str]:
    for child in ast.walk(target):
        if isinstance(child, ast.Name):
            yield child.id


@register
class ArenaVectorisationRule(Rule):
    """R12: arena hot paths must not loop over nodes in Python.

    ``repro.core.arena`` exists because level-batched numpy sweeps beat
    per-node Python loops by an order of magnitude; a ``for node in
    ...`` (or a ``range(len(...))`` / ``range(..n_nodes..)`` walk, or
    the comprehension equivalents) inside that package silently erodes
    the speed-up the e27 gate pins.  Structural loops — over the
    per-depth ``levels`` tuple, over depth buckets, the engine's step
    loop — stay clean.  A deliberate per-node loop off the hot path
    (e.g. seeding a binding from a pre-settled state at subscribe
    time), or one bounded by the scalar-path threshold
    ``selection.SCALAR_MAX``, must be individually acknowledged with
    ``# lint: disable=R12``.
    """

    name = "R12"
    title = "arena vectorisation (no per-node Python loops)"
    severity = Severity.ERROR

    SCOPES = ("core/arena/",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.logical_path.startswith(self.SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_loop(
                    ctx, node, node.target, node.iter, "for loop"
                )
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp,
                 ast.GeneratorExp),
            ):
                for gen in node.generators:
                    yield from self._check_loop(
                        ctx, node, gen.target, gen.iter, "comprehension"
                    )

    def _check_loop(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        target: ast.AST,
        iterable: ast.AST,
        kind: str,
    ) -> Iterator[Finding]:
        reason = self._per_node_reason(target, iterable)
        if reason is None:
            return
        yield ctx.finding(
            self, node,
            f"per-node Python {kind} in an arena hot path ({reason}); "
            f"use a vectorised level sweep, or acknowledge an off-path "
            f"loop with '# lint: disable=R12'",
        )

    def _per_node_reason(
        self, target: ast.AST, iterable: ast.AST
    ) -> Optional[str]:
        for name in _target_names(target):
            if _PER_NODE_NAMES.search(name):
                return f"loop variable {name!r}"
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "range"
        ):
            for arg in iterable.args:
                for sub in ast.walk(arg):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "len"
                    ):
                        return "range over len(...)"
                    if (
                        isinstance(sub, ast.Attribute)
                        and sub.attr == "n_nodes"
                    ):
                        return "range over n_nodes"
            return None
        for name in _names_in(iterable):
            if _PER_NODE_NAMES.search(name):
                return f"iterating {name!r}"
        return None
