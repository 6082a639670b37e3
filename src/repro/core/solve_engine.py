"""Step-synchronous engine for the leaf-evaluation model (Boolean trees).

One basic step = select a batch of live leaves (per policy), evaluate
all of them simultaneously, and let determination propagate for free.
The engine is the direct executable form of the paper's algorithm
statements ("At each step, evaluate ..."); the loop itself is
:func:`repro.core.steps.run_steps`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ModelViolationError
from ..models.accounting import EvalResult
from ..telemetry import Recorder
from ..trees.base import GameTree, NodeId
from .status import BooleanState
from .steps import SOLVE, run_steps

#: A selection policy: (tree, state) -> batch of live leaves.
Policy = Callable[[GameTree, BooleanState], List[NodeId]]

#: A leaf evaluator: batch of leaves -> their 0/1 values, in batch order.
LeafEvaluator = Callable[[List[NodeId]], Sequence[int]]

#: Optional per-step instrumentation hook: (state, step index, batch).
StepHook = Callable[[BooleanState, int, List[NodeId]], None]


def run_boolean(
    tree: GameTree,
    policy: Policy,
    *,
    evaluate: Optional[LeafEvaluator] = None,
    keep_batches: bool = False,
    on_step: Optional[StepHook] = None,
    max_steps: Optional[int] = None,
    validate_batches: bool = False,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Evaluate a Boolean tree under ``policy``; return value and trace.

    Parameters
    ----------
    evaluate:
        Where leaf values come from, one call per step with the
        (validated) batch; ``None`` reads the tree's own
        ``leaf_value``.  An external oracle plugs in here
        (:func:`repro.models.oracle_runner.run_with_oracle`).
    keep_batches:
        Store the full batch at every step in the trace (needed by the
        base-path/code analyses; off by default to save memory).
    on_step:
        Called after each step with the updated state — used by
        invariant-checking tests and by analyses that watch liveness.
    max_steps:
        Safety valve for tests; exceeding it raises
        :class:`~repro.errors.ModelViolationError`.
    validate_batches:
        Check every selected leaf against the model's contract (live,
        distinct) before evaluating — for exercising custom policies;
        the built-in policies satisfy the contract by construction.
    recorder:
        Telemetry sink; the logical clock is the basic-step count.
    """
    state = BooleanState(tree)
    root = tree.root

    def apply(batch: List[NodeId]) -> Tuple[List[NodeId], None]:
        if validate_batches:
            _validate_batch(tree, state, batch)
        if evaluate is None:
            for leaf in batch:
                state.evaluate_leaf(leaf)
        else:
            for leaf, val in zip(batch, evaluate(batch), strict=True):
                state.settle_leaf(leaf, val)
        return batch, None

    # Height-0 trees need no special case: every policy selects the
    # root leaf itself, so the loop runs exactly one (validated,
    # traced) step.
    trace, evaluated = run_steps(
        SOLVE, policy, partial(policy, tree, state), apply,
        lambda: root in state.value,
        keep_batches=keep_batches,
        on_step=None if on_step is None else partial(on_step, state),
        max_steps=max_steps, recorder=recorder,
    )
    return EvalResult(state.value[root], trace, evaluated)


def _validate_batch(tree: GameTree, state: BooleanState, batch) -> None:
    """Enforce the leaf-evaluation model's contract on a batch."""
    seen = set()
    for leaf in batch:
        if leaf in seen:
            raise ModelViolationError(
                f"policy selected leaf {leaf!r} twice in one step"
            )
        seen.add(leaf)
        if not tree.is_leaf(leaf):
            raise ModelViolationError(
                f"policy selected non-leaf {leaf!r}"
            )
        if not state.is_live(leaf):
            raise ModelViolationError(
                f"policy selected dead leaf {leaf!r}"
            )
