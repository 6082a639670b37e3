"""The module import graph over the linted tree.

Nodes are logical paths (``core/policies.py``); a directed edge
``A -> B`` means module A imports module B.  Both spellings used in
this repository resolve: ``repro.``-absolute (``from repro.telemetry
import Recorder``), package-absolute (``from telemetry import x`` in a
fixture tree), and relative (``from ..models.executors import
OracleRuntime``).  Imports of modules outside the linted set (numpy,
the stdlib) are ignored — the graph describes the project, not its
environment.

The call graph uses the *transitive closure* of this graph to restrict
callee-name resolution: a call site in module A may only bind to a
same-named function in module B when A imports B (directly or through
re-exporting packages).  That keeps suffix-matching from linking
unrelated same-named helpers across disconnected subsystems.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..base import ModuleContext

import ast


def module_dotted(logical_path: str) -> str:
    """``serve/cache.py`` -> ``serve.cache``; ``serve/__init__.py`` ->
    ``serve``; ``__init__.py`` (the package root) -> ``""``."""
    parts = logical_path[:-3].split("/")  # strip ".py"
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _package_parts(logical_path: str) -> List[str]:
    """Dotted parts of the *package* containing the module."""
    parts = logical_path[:-3].split("/")
    return parts[:-1]


class ModuleGraph:
    """Directed import graph over a set of linted modules."""

    def __init__(self, modules: Sequence[ModuleContext]) -> None:
        self._paths: Tuple[str, ...] = tuple(
            ctx.logical_path for ctx in modules
        )
        #: dotted module name -> logical path, for resolution.
        self._by_dotted: Dict[str, str] = {
            module_dotted(path): path for path in self._paths
        }
        self._edges: Dict[str, Tuple[str, ...]] = {}
        for ctx in modules:
            self._edges[ctx.logical_path] = self._resolve_imports(ctx)
        self._closure: Dict[str, FrozenSet[str]] = {}

    # -- construction ------------------------------------------------------
    def _resolve_imports(self, ctx: ModuleContext) -> Tuple[str, ...]:
        found: List[str] = []
        seen: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                candidates = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base_mod = self._absolute_module(ctx, node)
                # ``from pkg import sub`` imports the submodule
                # ``pkg.sub`` when it exists; try the extended
                # spelling first so it wins over the bare package.
                candidates = [
                    f"{base_mod}.{alias.name}" if base_mod
                    else alias.name
                    for alias in node.names
                ]
                candidates.append(base_mod)
            else:
                continue
            for dotted in candidates:
                if dotted is None:
                    continue
                target = self._lookup(dotted)
                if target is not None and target not in seen:
                    if target != ctx.logical_path:
                        seen.add(target)
                        found.append(target)
        return tuple(found)

    @staticmethod
    def _absolute_module(
        ctx: ModuleContext, node: ast.ImportFrom
    ) -> str:
        """Resolve an ImportFrom to a package-root-relative dotted name."""
        if node.level == 0:
            return node.module or ""
        base = _package_parts(ctx.logical_path)
        # level 1 = the containing package, each extra level = one up.
        up = node.level - 1
        base = base[: len(base) - up] if up else base
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def _lookup(self, dotted: str) -> Optional[str]:
        """Map a dotted module name to a linted logical path, or None.

        Tries the name as given, then with the leading ``repro.``
        stripped (absolute imports of the package under lint), then
        progressively shorter prefixes (``from pkg.mod import name``
        where ``name`` is an attribute, not a module).
        """
        spellings = [dotted]
        if dotted.startswith("repro."):
            spellings.append(dotted[len("repro."):])
        for spelling in spellings:
            parts = spelling.split(".")
            while parts:
                hit = self._by_dotted.get(".".join(parts))
                if hit is not None:
                    return hit
                parts = parts[:-1]
        return None

    # -- queries -----------------------------------------------------------
    @property
    def modules(self) -> Tuple[str, ...]:
        """All node logical paths, in linted order."""
        return self._paths

    def imports_of(self, path: str) -> Tuple[str, ...]:
        """Modules directly imported by ``path``."""
        return self._edges.get(path, ())

    def importers_of(self, path: str) -> Tuple[str, ...]:
        """Modules that directly import ``path``."""
        return tuple(
            src for src in self._paths
            if path in self._edges.get(src, ())
        )

    def transitive_imports(self, path: str) -> FrozenSet[str]:
        """Every module reachable from ``path`` along import edges.

        Cached; cycles (mutually importing modules) are handled by the
        visited set.
        """
        cached = self._closure.get(path)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack: List[str] = [path]
        while stack:
            current = stack.pop()
            for target in self._edges.get(current, ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        result = frozenset(seen)
        self._closure[path] = result
        return result

    def imports_transitively(self, src: str, dst: str) -> bool:
        """True when ``src`` (transitively) imports ``dst``."""
        return dst in self.transitive_imports(src)
