"""Step-synchronous engine for the node-expansion model (Boolean trees).

One basic step = select a batch of frontier nodes (per policy) and
expand all of them simultaneously.  Running time is the number of steps,
total work the number of expansions, processors the maximum batch size.

The policies are the leaf model's
:class:`~repro.core.policies.LeftmostPolicy` and
:class:`~repro.core.policies.WidthPolicy`: the state's ``expanded``
set makes their walks stop at unexpanded nodes instead of leaves, and
descend through expanded ones.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from ...models.accounting import EvalResult
from ...telemetry import Recorder
from ...trees.base import GameTree, NodeId
from ..steps import EXPANSION, run_steps
from .state import ExpansionState

ExpansionPolicy = Callable[[GameTree, ExpansionState], List[NodeId]]

ExpansionStepHook = Callable[[ExpansionState, int, List[NodeId]], None]


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
