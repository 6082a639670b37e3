"""The node-expansion model (Section 5)."""

from .alphabeta import (
    ExpansionAlphaBetaState,
    NAlphaBetaWidthPolicy,
    n_parallel_alpha_beta,
    n_sequential_alpha_beta,
    run_expansion_minmax,
    select_expansion_frontier,
)
from .engine import (
    IncrementalNWidthPolicy,
    NSequentialPolicy,
    NWidthPolicy,
    run_expansion,
    select_frontier_by_pruning_number,
    select_leftmost_frontier,
)
from .solve import n_parallel_solve, n_sequential_solve
from .state import ExpansionState

__all__ = [
    "ExpansionState",
    "ExpansionAlphaBetaState",
    "run_expansion",
    "run_expansion_minmax",
    "n_sequential_solve",
    "n_parallel_solve",
    "n_sequential_alpha_beta",
    "n_parallel_alpha_beta",
    "NSequentialPolicy",
    "NWidthPolicy",
    "IncrementalNWidthPolicy",
    "NAlphaBetaWidthPolicy",
    "select_frontier_by_pruning_number",
    "select_leftmost_frontier",
    "select_expansion_frontier",
]
