"""Arena engines for the Boolean leaf-evaluation model.

The same step loop as :func:`repro.core.solve_engine.run_boolean` —
select a batch of live leaves, evaluate all of them, cascade
determination for free — but over the struct-of-arrays columns: the
batch is a numpy index vector, leaf evaluation is one call of a
:data:`LeafEvaluator`, and the settle cascade is a level-batched
bottom-up sweep.  :func:`run_solve` is the only Boolean arena loop: the
inline engines here and the shared-memory executor
(:mod:`repro.core.shm`) run it with different evaluators.

Equivalence to the per-leaf cascade in
:class:`~repro.core.status.BooleanState`: within one step, a parent
settles to ``on_absorb`` iff some child settled with the gate's
absorbing value (whatever the order in which the batch's leaves are
evaluated — a counter can only reach zero once *every* child settled
non-absorbing, so the absorbing case always wins in the sequential
cascade too), and settles to ``otherwise`` iff its undetermined-child
counter reached zero.  Counters of already-settled parents are
garbage in both implementations (never observed).  Values, batches,
step counts and recorder calls are therefore bit-identical.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...errors import ModelViolationError, TreeStructureError
from ...models.accounting import EvalResult, ExecutionTrace
from ...telemetry import Recorder, live
from ...trees.base import GameTree, NodeId
from ...trees.canonical import CanonicalArrays, canonical_arrays
from .selection import most_urgent, select_frontier, select_width

__all__ = [
    "arena_parallel_solve",
    "arena_saturation_solve",
    "arena_team_solve",
]

#: One step's leaf evaluation: preorder leaf indices -> their values,
#: in batch order.
LeafEvaluator = Callable[[np.ndarray], np.ndarray]


class _BooleanArena:
    """Mutable run state of one Boolean arena evaluation."""

    def __init__(self, arrays: CanonicalArrays) -> None:
        if arrays.gate_absorbing is None:
            raise TreeStructureError("Boolean arena needs a Boolean tree")
        self.arrays = arrays
        n = arrays.n_nodes
        self.settled = np.zeros(n, dtype=bool)
        self.value = np.full(n, -1, dtype=np.int8)
        #: undetermined-children counters (garbage once a node settles).
        self.undetermined = arrays.arities.astype(np.int64)
        #: width-walk budget scratch (written before read each call).
        self.budget = np.zeros(n, dtype=np.int64)

    def evaluate_batch(self, batch: np.ndarray, values: np.ndarray) -> None:
        """Settle a batch of live leaves to ``values`` and cascade.

        ``batch`` holds distinct preorder leaf indices and ``values``
        their 0/1 values in batch order; the cascade runs one level at
        a time, deepest first, so parents always see their newly
        settled children in a single sweep.
        """
        arrays = self.arrays
        settled, value = self.settled, self.value
        parents, depths = arrays.parents, arrays.depths
        gate_abs = arrays.gate_absorbing
        gate_on = arrays.gate_on_absorb
        gate_other = arrays.gate_otherwise
        assert gate_abs is not None
        assert gate_on is not None
        assert gate_other is not None

        settled[batch] = True
        value[batch] = values

        # Bucket the newly settled nodes by depth and sweep upward;
        # parents settled at depth d-1 join that bucket.
        buckets: Dict[int, List[np.ndarray]] = {}
        batch_depths = depths[batch]
        for depth in np.unique(batch_depths).tolist():
            buckets[depth] = [batch[batch_depths == depth]]
        for depth in range(max(buckets), 0, -1):
            parts = buckets.get(depth)
            if not parts:
                continue
            nodes = parts[0] if len(parts) == 1 else np.concatenate(parts)
            up = parents[nodes]
            alive = ~settled[up]
            nodes, up = nodes[alive], up[alive]
            if nodes.shape[0] == 0:
                continue
            np.add.at(self.undetermined, up, -1)
            absorbed = np.unique(up[value[nodes] == gate_abs[up]])
            if absorbed.shape[0]:
                settled[absorbed] = True
                value[absorbed] = gate_on[absorbed]
            candidates = np.unique(up)
            exhausted = candidates[
                ~settled[candidates] & (self.undetermined[candidates] == 0)
            ]
            if exhausted.shape[0]:
                settled[exhausted] = True
                value[exhausted] = gate_other[exhausted]
            newly = (
                np.concatenate((absorbed, exhausted))
                if absorbed.shape[0] and exhausted.shape[0]
                else (absorbed if absorbed.shape[0] else exhausted)
            )
            if newly.shape[0]:
                buckets.setdefault(depth - 1, []).append(newly)


#: A selection rule: its policy name and ``arena -> batch`` closure.
Selection = Tuple[str, Callable[[_BooleanArena], np.ndarray]]


def run_solve(
    arrays: CanonicalArrays,
    selection: Selection,
    evaluate: LeafEvaluator,
    *,
    keep_batches: bool,
    recorder: Optional[Recorder],
    max_steps: Optional[int] = None,
) -> EvalResult:
    """The arena step loop — mirrors ``run_boolean`` call for call.

    ``evaluate`` is the only seam between executors: the inline engines
    below pass ``arrays.values.take`` (a gather from the lowered
    column), a :class:`~repro.core.shm.ShmSession` passes its pool.
    """
    rec = live(recorder)
    policy_name, select = selection
    arena = _BooleanArena(arrays)
    trace = ExecutionTrace(keep_batches=keep_batches)
    evaluated: List[NodeId] = []
    node_ids = arrays.node_ids

    step = 0
    while not arena.settled[0]:
        batch_idx = select(arena)
        if batch_idx.shape[0] == 0:
            raise ModelViolationError(
                f"policy {policy_name!r} selected no leaves while the "
                f"root is undetermined"
            )
        arena.evaluate_batch(batch_idx, evaluate(batch_idx))
        batch: List[NodeId] = node_ids[batch_idx].tolist()
        trace.record(batch)
        evaluated.extend(batch)
        if rec is not None:
            rec.advance(step + 1)
            rec.add_span(
                "step", step, step + 1, track="solve", degree=len(batch)
            )
            rec.count("solve.leaves_evaluated", len(batch))
            rec.sample("solve.degree", len(batch), track="solve")
        step += 1
        if max_steps is not None and step > max_steps:
            raise ModelViolationError(f"exceeded {max_steps} steps")

    if rec is not None:
        rec.count("solve.steps", step)
        rec.gauge("solve.processors", trace.processors)
    return EvalResult(int(arena.value[0]), trace, evaluated)


# -- selection --------------------------------------------------------------
def width_selection(
    width: int, max_processors: Optional[int] = None
) -> Selection:
    """Parallel SOLVE's width-``width`` selection.

    With ``max_processors`` the per-step batch is capped at the most
    urgent leaves, exactly like
    :class:`~repro.core.policies.BoundedWidthPolicy`.
    """
    if width < 0:
        raise ValueError("width must be >= 0")
    if max_processors is None:

        def select(arena: _BooleanArena) -> np.ndarray:
            return select_width(
                arena.arrays, arena.settled, width, arena.budget
            )

        return f"parallel-solve(w={width}, arena)", select

    if max_processors < 1:
        raise ValueError("need at least one processor")

    def select_bounded(arena: _BooleanArena) -> np.ndarray:
        leaves = select_width(
            arena.arrays, arena.settled, width, arena.budget
        )
        scores = width - arena.budget[leaves]
        return most_urgent(leaves, scores, width, max_processors)

    return (
        f"parallel-solve(w={width}, p={max_processors}, arena)",
        select_bounded,
    )


def team_selection(processors: int) -> Selection:
    """Team SOLVE's selection: the leftmost ``processors`` live leaves."""
    if processors < 1:
        raise ValueError("Team SOLVE needs at least one processor")

    def select(arena: _BooleanArena) -> np.ndarray:
        return select_frontier(arena.arrays, arena.settled)[:processors]

    return f"team-solve(p={processors}, arena)", select


def saturation_selection() -> Selection:
    """Saturation SOLVE's selection: every live leaf."""

    def select(arena: _BooleanArena) -> np.ndarray:
        return select_frontier(arena.arrays, arena.settled)

    return "saturation-solve(arena)", select


# -- inline engines ---------------------------------------------------------
def _run_inline(
    tree: GameTree,
    selection: Selection,
    *,
    keep_batches: bool,
    recorder: Optional[Recorder],
    max_steps: Optional[int],
) -> EvalResult:
    arrays = canonical_arrays(tree)
    return run_solve(
        arrays, selection, arrays.values.take,
        keep_batches=keep_batches, recorder=recorder, max_steps=max_steps,
    )


def arena_parallel_solve(
    tree: GameTree,
    width: int = 1,
    *,
    max_processors: Optional[int] = None,
    keep_batches: bool = False,
    recorder: Optional[Recorder] = None,
    max_steps: Optional[int] = None,
) -> EvalResult:
    """Parallel SOLVE of width ``width`` on the arena backend.

    With ``max_processors`` the per-step batch is capped at the most
    urgent leaves (see :func:`width_selection`).
    """
    return _run_inline(
        tree, width_selection(width, max_processors),
        keep_batches=keep_batches, recorder=recorder, max_steps=max_steps,
    )


def arena_team_solve(
    tree: GameTree,
    processors: int,
    *,
    keep_batches: bool = False,
    recorder: Optional[Recorder] = None,
    max_steps: Optional[int] = None,
) -> EvalResult:
    """Team SOLVE (leftmost ``processors`` live leaves) on the arena."""
    return _run_inline(
        tree, team_selection(processors),
        keep_batches=keep_batches, recorder=recorder, max_steps=max_steps,
    )


def arena_saturation_solve(
    tree: GameTree,
    *,
    keep_batches: bool = False,
    recorder: Optional[Recorder] = None,
    max_steps: Optional[int] = None,
) -> EvalResult:
    """Saturation SOLVE (every live leaf each step) on the arena."""
    return _run_inline(
        tree, saturation_selection(),
        keep_batches=keep_batches, recorder=recorder, max_steps=max_steps,
    )
