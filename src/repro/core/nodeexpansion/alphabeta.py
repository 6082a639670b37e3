"""Node-expansion versions of Sequential and Parallel alpha-beta.

Section 5 notes that "Sequential alpha-beta and Parallel alpha-beta can
also be converted into their node-expansion versions"; the paper omits
the details for space.  The conversion follows the same recipe as
SOLVE: the pruned tree T-tilde now lives over the generated tree T*,
frontier nodes (live, unexpanded, not pruned) replace unfinished
leaves as the selectable unit, and expansion of a leaf finishes it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Set, Tuple

from ...errors import ModelViolationError
from ...models.accounting import EvalResult
from ...trees.base import GameTree, NodeId
from ..alphabeta.engine import prune_to_fixpoint
from ..alphabeta.state import AlphaBetaState
from ..policies import budgeted_walk, check_count
from ..steps import EXPANSION_ALPHABETA, run_steps


class ExpansionAlphaBetaState(AlphaBetaState):
    """T* plus pruned-tree bookkeeping for MIN/MAX node expansion.

    Finishing, pruning and their cascades are the
    :class:`~repro.core.alphabeta.state.AlphaBetaState` ones; this
    class adds only the expanded set and the expansion operation.
    """

    def __init__(self, tree: GameTree):
        super().__init__(tree)
        #: nodes on which the expansion operation has been applied.
        self.expanded: Set[NodeId] = set()

    # -- updates ------------------------------------------------------------
    def expand(self, node: NodeId) -> None:
        """Apply the node-expansion operation; a leaf finishes."""
        if node in self.expanded:
            raise ModelViolationError(f"node {node!r} expanded twice")
        self.expanded.add(node)
        if self.tree.is_leaf(node):
            self._mark_touched(node)
            self._finish(node, float(self.tree.leaf_value(node)))


def select_expansion_frontier(
    tree: GameTree, state: ExpansionAlphaBetaState, width: int
) -> List[NodeId]:
    """Frontier nodes of T-tilde over T* with pruning number <= width."""
    return [
        node for node, _pn in
        budgeted_walk(tree, width, state.settled, state.expanded)
    ]


class NAlphaBetaWidthPolicy:
    """N-Parallel alpha-beta of width w (w = 0: N-Sequential)."""

    def __init__(self, width: int):
        self.width = width = check_count(width, 0, "width must be >= 0")
        self.name = f"n-parallel-alpha-beta(w={width})"

    def __call__(self, tree: GameTree, state: ExpansionAlphaBetaState):
        return select_expansion_frontier(tree, state, self.width)


def run_expansion_minmax(
    tree: GameTree,
    policy: Callable[[GameTree, ExpansionAlphaBetaState], List[NodeId]],
    *,
    keep_batches: bool = False,
    on_step=None,
    max_steps: Optional[int] = None,
) -> EvalResult:
    """Run a node-expansion alpha-beta policy; return value and trace.

    The pruning pass is the leaf model's
    :func:`~repro.core.alphabeta.engine.prune_to_fixpoint`: it descends
    only into touched nodes, which are expanded.
    """
    state = ExpansionAlphaBetaState(tree)
    root = tree.root

    def apply(batch: List[NodeId]) -> Tuple[List[NodeId], int]:
        for node in batch:
            state.expand(node)
        return batch, prune_to_fixpoint(state)

    trace, expanded_order = run_steps(
        EXPANSION_ALPHABETA, policy, partial(policy, tree, state), apply,
        lambda: root in state.finished_value,
        keep_batches=keep_batches,
        on_step=None if on_step is None else partial(on_step, state),
        max_steps=max_steps,
    )
    return EvalResult(state.finished_value[root], trace, expanded_order)


def n_sequential_alpha_beta(tree: GameTree, **kw) -> EvalResult:
    """N-Sequential alpha-beta: expand the leftmost frontier node."""
    return run_expansion_minmax(tree, NAlphaBetaWidthPolicy(0), **kw)


def n_parallel_alpha_beta(
    tree: GameTree, width: int = 1, **kw
) -> EvalResult:
    """N-Parallel alpha-beta of the given width."""
    return run_expansion_minmax(tree, NAlphaBetaWidthPolicy(width), **kw)
