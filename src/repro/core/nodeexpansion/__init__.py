"""The node-expansion model (Section 5)."""

from .alphabeta import (
    ExpansionAlphaBetaState,
    n_parallel_alpha_beta,
    n_sequential_alpha_beta,
    run_expansion_minmax,
)
from .engine import run_expansion
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
]
