"""Step-synchronous engine for the pruning process (Section 4).

A general step consists of

1. a *leaf-evaluation step*: the policy selects unfinished leaves of
   the current pruned tree and all of them are evaluated; then
2. a maximal sequence of free *propagation steps* (finishing nodes whose
   remaining children are finished) and *pruning steps* (deleting
   unfinished nodes whose alpha-bound reaches their beta-bound).

Bounds follow the paper's definitions: the alpha-bound of v is the
largest value among finished siblings of MIN-ancestors of v (v counts
as its own ancestor), the beta-bound the smallest value among finished
siblings of MAX-ancestors.  Since a *finished* sibling of an unfinished
child u of a MAX node x is just a finished child of x, the bounds are
computed in one top-down pass: descending from x into u,

* x MAX:  alpha(u) = max(alpha(x), max value of x's finished children)
* x MIN:  beta(u)  = min(beta(x),  min value of x's finished children)

The pruning pass repeats until fixpoint: pruning a child can finish its
parent, which sharpens bounds elsewhere.  Because bounds only ever
tighten, working with momentarily stale bounds merely delays a prune to
the next round of the fixpoint loop — it never prunes wrongly.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, List, Optional, Tuple

from ...models.accounting import EvalResult
from ...telemetry import Recorder
from ...trees.base import GameTree, NodeId
from ...types import NodeType
from ..frontier import FrontierIndex, _IncrementalPolicy
from ..policies import budgeted_walk, check_count
from ..steps import ALPHABETA, run_steps
from .state import AlphaBetaState

#: A selection policy: (tree, state) -> batch of unfinished leaves.
MinmaxPolicy = Callable[[GameTree, AlphaBetaState], List[NodeId]]

#: Per-step hook: (state, step index, batch).
MinmaxStepHook = Callable[[AlphaBetaState, int, List[NodeId]], None]


def prune_to_fixpoint(state: AlphaBetaState) -> int:
    """Apply the pruning rule until nothing more can be deleted.

    Returns the number of nodes pruned.  Cost is not charged to the
    model (pruning and propagation are free).
    """
    total = 0
    while True:
        pruned_now = _prune_pass(state)
        total += pruned_now
        if pruned_now == 0:
            return total


def _prune_pass(state: AlphaBetaState) -> int:
    """One top-down sweep of the pruning rule; returns the prune count.

    The sweep descends only into *touched* children — those with an
    evaluated leaf below them.  Every other subtree has no finished
    node, so its bounds are the ones inherited from its parent and
    nothing inside it can be pruned before its root is.  A touched
    leaf is finished, so the descent never reaches a terminal; in the
    node-expansion model a touched node is expanded.  While the root
    is untouched every bound is infinite and the pass prunes nothing.
    """
    tree = state.tree
    root = tree.root
    settled, pruned = state.settled, state.pruned
    touched = state.touched
    finished = state.finished_value
    if root in finished or root not in touched:
        return 0
    count = 0
    stack = [(root, -math.inf, math.inf)]
    while stack:
        node, alpha, beta = stack.pop()
        if node in settled:
            continue  # settled by a cascade after being pushed
        is_max = tree.node_type(node) is NodeType.MAX
        finished_vals = [
            finished[c]
            for c in tree.children(node)
            if c in finished and c not in pruned
        ]
        if is_max:
            child_alpha = max([alpha] + finished_vals)
            child_beta = beta
        else:
            child_alpha = alpha
            child_beta = min([beta] + finished_vals)
        for child in tree.children(node):
            if child in settled:
                continue
            if child_alpha >= child_beta:
                state.prune(child)
                count += 1
                if node in settled:
                    break  # the prune cascaded; siblings are settled
                continue
            if child in touched:
                stack.append((child, child_alpha, child_beta))
    return count


def select_unfinished_by_pruning_number(
    tree: GameTree, state: AlphaBetaState, width: int
) -> List[NodeId]:
    """Unfinished leaves of T-tilde with pruning number <= ``width``.

    Same budgeted DFS as the Boolean case, with "determined" replaced by
    "finished" and pruned children excluded from both the walk and the
    sibling counts: the walk's ``settled`` set is finished-or-pruned.
    """
    return [leaf for leaf, _pn in budgeted_walk(tree, width, state.settled)]


class AlphaBetaWidthPolicy:
    """Parallel alpha-beta of width w (w = 0: Sequential alpha-beta)."""

    def __init__(self, width: int):
        self.width = width = check_count(width, 0, "width must be >= 0")
        self.name = f"parallel-alpha-beta(w={width})"

    def __call__(
        self, tree: GameTree, state: AlphaBetaState
    ) -> List[NodeId]:
        return select_unfinished_by_pruning_number(tree, state, self.width)


class IncrementalAlphaBetaWidthPolicy(_IncrementalPolicy):
    """Width-w alpha-beta selection, incrementally maintained.

    Step-for-step identical to :class:`AlphaBetaWidthPolicy`:
    "settled" is finished-or-pruned, and the state's transition feed
    (finishes *and* prunes, children before parents) keeps the index
    current across the free propagation/pruning cascades.
    """

    def __init__(self, width: int):
        super().__init__()
        self.width = width = check_count(width, 0, "width must be >= 0")
        self.name = f"parallel-alpha-beta(w={width}, incremental)"

    def _bind(self, tree: GameTree, state: object) -> FrontierIndex:
        assert isinstance(state, AlphaBetaState)
        idx = FrontierIndex(
            tree, state, width=self.width,
            settled=state.settled.__contains__,
        )
        state.subscribe(idx.on_settled)
        return idx

    def __call__(
        self, tree: GameTree, state: AlphaBetaState
    ) -> List[NodeId]:
        return self.index_for(tree, state).batch()


def run_minmax(
    tree: GameTree,
    policy: MinmaxPolicy,
    *,
    keep_batches: bool = False,
    on_step: Optional[MinmaxStepHook] = None,
    max_steps: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Run the pruning process under ``policy``; return value and trace."""
    state = AlphaBetaState(tree)
    root = tree.root

    def apply(batch: List[NodeId]) -> Tuple[List[NodeId], int]:
        for leaf in batch:
            state.finish_leaf(leaf)
        return batch, prune_to_fixpoint(state)

    trace, evaluated = run_steps(
        ALPHABETA, policy, partial(policy, tree, state), apply,
        lambda: root in state.finished_value,
        keep_batches=keep_batches,
        on_step=None if on_step is None else partial(on_step, state),
        max_steps=max_steps, recorder=recorder,
    )
    return EvalResult(state.finished_value[root], trace, evaluated)
