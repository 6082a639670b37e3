"""Sequential SOLVE — the "left-to-right" algorithm (Section 2).

Two implementations are provided:

* :func:`sequential_solve` — a fast non-recursive depth-first
  short-circuit evaluation, the direct analogue of the paper's
  ``S-SOLVE`` program.  This is the production path: it is what
  ``S(T)`` is measured with, and what skeleton construction replays.
* the engine route (``run_boolean`` with
  :class:`~repro.core.policies.LeftmostPolicy` of limit 1) — one leaf
  per basic step.  Both must evaluate exactly the same leaves
  in exactly the same order; the test suite enforces this equivalence.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..models.accounting import EvalResult, ExecutionTrace
from ..telemetry import Recorder, record_execution_trace
from ..trees.base import GameTree, NodeId


def sequential_solve(
    tree: GameTree, *, recorder: Optional[Recorder] = None
) -> EvalResult:
    """Evaluate a Boolean tree left-to-right with short-circuiting.

    Returns an :class:`EvalResult` whose trace has one degree-1 step per
    evaluated leaf, matching the leaf-evaluation model's accounting of
    Sequential SOLVE.  The trace is built after the fact (the fast
    non-recursive walk has no per-step loop), so telemetry is bridged
    from it via the :mod:`repro.telemetry.adapters` path.
    """
    value, leaves = solve_subtree(tree, tree.root)
    trace = ExecutionTrace()
    for leaf in leaves:
        trace.record([leaf])
    record_execution_trace(recorder, trace, track="sequential")
    return EvalResult(value, trace, list(leaves))


def solve_subtree(
    tree: GameTree, node: NodeId
) -> Tuple[int, List[NodeId]]:
    """Left-to-right evaluation of the subtree at ``node``.

    Returns the subtree's value and the list of leaves evaluated, in
    evaluation order.  Iterative (explicit stack) so tall trees do not
    hit the recursion limit.
    """
    evaluated: List[NodeId] = []
    # Frame: [node, children tuple or None, index of child in progress].
    stack: List[list] = [[node, None, 0]]
    ret: int = -1
    while stack:
        frame = stack[-1]
        cur = frame[0]
        if tree.is_leaf(cur):
            ret = int(tree.leaf_value(cur))
            evaluated.append(cur)
            stack.pop()
            continue
        if frame[1] is None:
            frame[1] = tree.children(cur)
            stack.append([frame[1][0], None, 0])
            continue
        # A child just returned ``ret``.
        gate = tree.gate(cur)
        if ret == gate.absorbing:
            ret = gate.on_absorb
            stack.pop()
            continue
        frame[2] += 1
        if frame[2] == len(frame[1]):
            ret = gate.otherwise
            stack.pop()
            continue
        stack.append([frame[1][frame[2]], None, 0])
    return ret, evaluated


def sequential_leaf_set(tree: GameTree) -> List[NodeId]:
    """``L(T)``: the leaves Sequential SOLVE evaluates, in order."""
    _, leaves = solve_subtree(tree, tree.root)
    return leaves
