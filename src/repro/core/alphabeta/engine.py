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
read off the *gains* on u's root path (the best finished-child value of
each node, kept by :class:`~.state.AlphaBetaState`): descending from x
into u,

* x MAX:  alpha(u) = max(alpha(x), gain(x))
* x MIN:  beta(u)  = min(beta(x),  gain(x))

Those two values are x's *window*; x's open children are all pruned
when it is empty (alpha >= beta).

The pruning steps run in rounds until fixpoint: pruning a child can
finish its parent, which moves gains elsewhere.  A round reads every
bound before it prunes anything, and a window depends only on the
gains along its root path, so once a round prunes nothing, a new cut
can only appear below a node whose gain has moved since.  The state
records those nodes as *dirty*, and each round starts only from the
topmost live ones (see :func:`prune_to_fixpoint`).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, List, Optional, Tuple

from ...models.accounting import EvalResult
from ...telemetry import Recorder
from ...trees.base import GameTree, NodeId
from ...types import NodeType
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

    Each round takes the state's dirty nodes (those whose gain moved
    since the last round began) and keeps the *seeds*: the live ones
    with no dirty ancestor.  It reads each seed's window (alpha, beta)
    off its root path's gains, all before it prunes anything, then
    descends from the seeds, rightmost first, through touched
    unsettled nodes, pruning every open child of a node whose window
    is empty.  Rounds repeat while some gain moved.

    This prunes exactly what a top-down sweep of the whole touched tree
    per round would, in the same order:

    * such a sweep reads each node's gain before it touches anything
      beneath it, so every bound it uses is one the round began with —
      hence all seed windows are read up front;
    * a window depends only on the gains on its root path.  Every live
      window is non-empty before the first finish and after a round
      that prunes nothing, so a window can only have emptied below a
      node whose gain moved since: inside some seed's subtree;
    * the sweep visits children right to left, and visiting seeds in
      right-to-left preorder visits their disjoint subtrees in its
      order, so prunes come in its order.

    The descent skips untouched children: with no finished node below
    them their window is their parent's, which did not cut.  A touched
    leaf is finished, so the descent never reaches a terminal; in the
    node-expansion model a touched node is expanded.
    """
    tree = state.tree
    root = tree.root
    finished = state.finished_value
    total = 0
    while state.dirty and root not in finished:
        total += _prune_round(state, _take_seeds(state))
    return total


def _take_seeds(state: AlphaBetaState) -> List[Tuple[NodeId, float, float]]:
    """Take the dirty set; return its seeds in preorder.

    A seed is an unsettled dirty node with no settled or dirty proper
    ancestor, paired with the (alpha, beta) its proper ancestors'
    gains give it.  The last entry is the rightmost seed.
    """
    tree = state.tree
    settled = state.settled
    max_gain, min_gain = state.max_gain, state.min_gain
    dirty, state.dirty = state.dirty, set()
    seeds = []
    for node in dirty:
        if node in settled:
            continue
        alpha, beta = -math.inf, math.inf
        anc = tree.parent(node)
        while anc is not None:
            if anc in dirty or anc in settled:
                break
            gain = max_gain.get(anc)
            if gain is not None:
                if gain > alpha:
                    alpha = gain
            else:
                gain = min_gain.get(anc)
                if gain is not None and gain < beta:
                    beta = gain
            anc = tree.parent(anc)
        else:
            seeds.append((node, alpha, beta))
    if len(seeds) > 1:
        seeds.sort(key=lambda seed: _preorder_key(tree, seed[0]))
    return seeds


def _preorder_key(tree: GameTree, node: NodeId) -> List[int]:
    """Child positions on ``node``'s root path: sorts in preorder."""
    key = []
    parent = tree.parent(node)
    while parent is not None:
        key.append(tree.children(parent).index(node))
        node, parent = parent, tree.parent(parent)
    key.reverse()
    return key


def _prune_round(
    state: AlphaBetaState, stack: List[Tuple[NodeId, float, float]]
) -> int:
    """Descend from the seeds on ``stack``; return the prune count."""
    tree = state.tree
    settled, touched = state.settled, state.touched
    max_gain, min_gain = state.max_gain, state.min_gain
    count = 0
    while stack:
        node, alpha, beta = stack.pop()
        if node in settled:
            continue  # settled by a cascade after being pushed
        gain = max_gain.get(node)
        if gain is not None:
            if gain > alpha:
                alpha = gain
        else:
            gain = min_gain.get(node)
            if gain is not None and gain < beta:
                beta = gain
        if alpha >= beta:
            for child in tree.children(node):
                if child in settled:
                    continue
                state.prune(child)
                count += 1
                if node in settled:
                    break  # the prune cascaded; siblings are settled
        else:
            for child in tree.children(node):
                if child in touched and child not in settled:
                    stack.append((child, alpha, beta))
    return count


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
