"""Core evaluation algorithms (the paper's contribution).

Leaf-evaluation model, Boolean trees (Section 2):

* :func:`sequential_solve` — the left-to-right algorithm (S-SOLVE);
* :func:`team_solve` — leftmost-p naive parallelization;
* :func:`parallel_solve` — the width-w pruning-number algorithm.

MIN/MAX trees (Section 4) live in :mod:`repro.core.alphabeta`; the
node-expansion model (Section 5) in :mod:`repro.core.nodeexpansion`;
randomized variants (Section 6) in :mod:`repro.core.randomized`.
"""

from .arena import arena_alpha_beta, arena_solve
from .parallel_solve import (
    BACKENDS,
    EXECUTORS,
    parallel_solve,
    saturation_solve,
    span,
)
from .policies import (
    LeftmostPolicy,
    WidthPolicy,
    rank_by_urgency,
)
from .sequential_solve import (
    sequential_leaf_set,
    sequential_solve,
    solve_subtree,
)
from .shm import (
    ShmOptions,
    ShmRunResult,
    ShmSession,
)
from .solve_engine import run_boolean
from .status import BooleanState
from .team_solve import team_solve

__all__ = [
    "sequential_solve",
    "sequential_leaf_set",
    "solve_subtree",
    "team_solve",
    "parallel_solve",
    "saturation_solve",
    "span",
    "run_boolean",
    "BooleanState",
    "BACKENDS",
    "EXECUTORS",
    "ShmOptions",
    "ShmRunResult",
    "ShmSession",
    "LeftmostPolicy",
    "WidthPolicy",
    "arena_solve",
    "arena_alpha_beta",
    "rank_by_urgency",
]
