"""N-Sequential SOLVE and N-Parallel SOLVE wrappers (Section 5).

``n_sequential_solve`` is the paper's S-SOLVE* — a left-to-right
depth-first search that generates the tree as it goes — and
``n_parallel_solve`` its width-w parallelization P-SOLVE*.  Theorem 4:
width 1 achieves a c(n+1) speed-up in expansions-per-step on uniform
trees, with n+1 processors.
"""

from __future__ import annotations

from typing import Optional

from ...errors import BackendUnsupportedError
from ...models.accounting import EvalResult
from ...trees.base import GameTree
from ..parallel_solve import resolve_backend
from ..policies import LeftmostPolicy, WidthPolicy
from .engine import run_expansion


def n_sequential_solve(tree: GameTree, **kw) -> EvalResult:
    """Expand the leftmost frontier node at each step (S-SOLVE*)."""
    return run_expansion(tree, LeftmostPolicy(1), **kw)


def n_parallel_solve(
    tree: GameTree,
    width: int = 1,
    *,
    backend: Optional[str] = "rescan",
    **kw,
) -> EvalResult:
    """Expand all frontier nodes with pruning number <= width (P-SOLVE*).

    ``backend`` names the frontier engine; only ``"rescan"`` (also
    what ``None``, the default elsewhere, picks) runs here.  The arena
    backend lowers a *fixed* tree to arrays up front, which the
    expansion model's grow-as-you-go frontier contradicts, so it is
    rejected rather than silently falling back.
    """
    backend = resolve_backend("rescan" if backend is None else backend)
    if backend == "arena":
        raise BackendUnsupportedError(
            "engine 'n-parallel-solve' has no arena backend "
            "(the expansion model grows the tree as it goes, so there "
            "is nothing to lower up front); use 'rescan'",
            engine="n-parallel-solve", backend="arena",
        )
    return run_expansion(tree, WidthPolicy(width), **kw)
