"""Step-synchronous engine for the leaf-evaluation model (Boolean trees).

One basic step = select a batch of live leaves (per policy), evaluate
all of them simultaneously, and let determination propagate for free.
The engine is the direct executable form of the paper's algorithm
statements ("At each step, evaluate ...").
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..errors import ModelViolationError
from ..models.accounting import EvalResult, ExecutionTrace
from ..telemetry import Recorder, live
from ..trees.base import GameTree, NodeId
from .status import BooleanState

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
    rec = live(recorder)
    state = BooleanState(tree)
    trace = ExecutionTrace(keep_batches=keep_batches)
    evaluated: List[NodeId] = []
    root = tree.root

    # Height-0 trees need no special case: every policy selects the
    # root leaf itself, so the loop runs exactly one (validated,
    # traced) step.
    step = 0
    while root not in state.value:
        batch = policy(tree, state)
        if not batch:
            raise ModelViolationError(
                f"policy {getattr(policy, 'name', policy)!r} selected no "
                f"leaves while the root is undetermined"
            )
        if validate_batches:
            _validate_batch(tree, state, batch)
        if evaluate is None:
            for leaf in batch:
                state.evaluate_leaf(leaf)
        else:
            for leaf, val in zip(batch, evaluate(batch), strict=True):
                state.settle_leaf(leaf, val)
        trace.record(batch)
        evaluated.extend(batch)
        if rec is not None:
            rec.advance(step + 1)
            rec.add_span(
                "step", step, step + 1, track="solve", degree=len(batch)
            )
            rec.count("solve.leaves_evaluated", len(batch))
            rec.sample("solve.degree", len(batch), track="solve")
        if on_step is not None:
            on_step(state, step, batch)
        step += 1
        if max_steps is not None and step > max_steps:
            raise ModelViolationError(f"exceeded {max_steps} steps")

    if rec is not None:
        rec.count("solve.steps", step)
        rec.gauge("solve.processors", trace.processors)
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
