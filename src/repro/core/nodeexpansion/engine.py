"""Step-synchronous engine for the node-expansion model (Boolean trees).

One basic step = select a batch of frontier nodes (per policy) and
expand all of them simultaneously.  Running time is the number of steps,
total work the number of expansions, processors the maximum batch size.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from ...models.accounting import EvalResult
from ...telemetry import Recorder
from ...trees.base import GameTree, NodeId
from ..policies import budgeted_walk, check_count, leftmost_walk
from ..steps import EXPANSION, run_steps
from .state import ExpansionState

ExpansionPolicy = Callable[[GameTree, ExpansionState], List[NodeId]]

ExpansionStepHook = Callable[[ExpansionState, int, List[NodeId]], None]


def select_frontier_by_pruning_number(
    tree: GameTree, state: ExpansionState, width: int
) -> List[NodeId]:
    """Frontier nodes of T* with pruning number <= ``width``.

    The walk mirrors the leaf-evaluation selection, but its terminals
    are *unexpanded* live nodes rather than leaves — an expanded node is
    an interior point of T* and the walk descends through it.
    """
    return [
        node for node, _pn in
        budgeted_walk(tree, width, state.value, state.expanded)
    ]


def select_leftmost_frontier(
    tree: GameTree, state: ExpansionState, limit: int
) -> List[NodeId]:
    """The leftmost ``limit`` frontier nodes of T*."""
    return leftmost_walk(tree, limit, state.value, state.expanded)


class NSequentialPolicy:
    """N-Sequential SOLVE: expand the leftmost frontier node."""

    name = "n-sequential-solve"

    def __call__(self, tree: GameTree, state: ExpansionState):
        return select_leftmost_frontier(tree, state, 1)


class NWidthPolicy:
    """N-Parallel SOLVE of width w (w = 0: N-Sequential SOLVE)."""

    def __init__(self, width: int):
        self.width = width = check_count(width, 0, "width must be >= 0")
        self.name = f"n-parallel-solve(w={width})"

    def __call__(self, tree: GameTree, state: ExpansionState):
        return select_frontier_by_pruning_number(tree, state, self.width)


def run_expansion(
    tree: GameTree,
    policy: ExpansionPolicy,
    *,
    keep_batches: bool = False,
    on_step: Optional[ExpansionStepHook] = None,
    max_steps: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Evaluate a Boolean tree in the node-expansion model."""
    state = ExpansionState(tree)
    root = tree.root

    def apply(batch: List[NodeId]) -> Tuple[List[NodeId], None]:
        for node in batch:
            state.expand(node)
        return batch, None

    trace, expanded_order = run_steps(
        EXPANSION, policy, partial(policy, tree, state), apply,
        lambda: root in state.value,
        keep_batches=keep_batches,
        on_step=None if on_step is None else partial(on_step, state),
        max_steps=max_steps, recorder=recorder,
    )
    return EvalResult(state.value[root], trace, expanded_order)
