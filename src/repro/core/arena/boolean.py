"""Arena engines for the Boolean leaf-evaluation model.

The same basic step as :func:`repro.core.solve_engine.run_boolean`, run
by the same driver (:func:`repro.core.steps.run_steps`) — select a
batch of live leaves, evaluate all of them, cascade determination for
free — but over the struct-of-arrays columns: the batch is a numpy
index vector, leaf evaluation is one call of a :data:`LeafEvaluator`,
and the settle cascade is a level-batched bottom-up sweep.
:func:`run_solve` is the only Boolean arena run: the inline engines
here and the shared-memory executor (:mod:`repro.core.shm`) call it
with different evaluators.

Equivalence to the per-leaf cascade in
:class:`~repro.core.status.BooleanState`: within one step, a parent
settles to ``on_absorb`` iff some child settled with the gate's
absorbing value (whatever the order in which the batch's leaves are
evaluated — a counter can only reach zero once *every* child settled
non-absorbing, so the absorbing case always wins in the sequential
cascade too), and settles to ``otherwise`` iff its undetermined-child
counter reached zero.  Counters of already-settled parents are
garbage in both implementations (never observed).  Values, batches,
step counts and recorder calls are therefore bit-identical.  The same
argument covers a batch of at most
:data:`~repro.core.arena.selection.SCALAR_MAX` leaves, which cascades
on Python scalars one leaf at a time, as the reference does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...errors import TreeStructureError
from ...models.accounting import EvalResult
from ...telemetry import Recorder
from ...trees.base import GameTree, NodeId
from ...trees.canonical import CanonicalArrays, canonical_arrays
from ..policies import check_count
from ..steps import SOLVE, run_steps
from . import selection
from .selection import WidthWalk, most_urgent, select_frontier, select_width

__all__ = [
    "arena_parallel_solve",
    "arena_saturation_solve",
    "arena_team_solve",
]

#: One step's leaf evaluation: preorder leaf indices -> their values,
#: in batch order.
LeafEvaluator = Callable[[np.ndarray], np.ndarray]


def run_starts(ascending: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in a non-empty array
    whose equal values are adjacent (a sorted one, say)."""
    heads = np.empty(ascending.shape[0], dtype=bool)
    heads[0] = True
    np.not_equal(ascending[1:], ascending[:-1], out=heads[1:])
    return heads.nonzero()[0]


def depth_buckets(
    nodes: np.ndarray, depths: np.ndarray
) -> Dict[int, List[np.ndarray]]:
    """Non-empty ``nodes`` split by depth, shallowest first; each part
    keeps the order of ``nodes``."""
    node_depths = depths[nodes]
    present = np.bincount(node_depths).nonzero()[0].tolist()
    return {depth: [nodes[node_depths == depth]] for depth in present}


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
        #: width-walk budget scratch and the levels it kept last step.
        self.budget = np.zeros(n, dtype=np.int64)
        self.walk = WidthWalk()
        #: memoryviews of the columns the scalar cascade reads and writes.
        self._views = selection.memoryviews(
            arrays.parents, arrays.depths, self.settled, self.value,
            self.undetermined, arrays.gate_absorbing, arrays.gate_on_absorb,
            arrays.gate_otherwise,
        )

    def evaluate_batch(self, batch: np.ndarray, values: np.ndarray) -> None:
        """Settle a batch of live leaves to ``values`` and cascade.

        ``batch`` holds sorted distinct preorder leaf indices and ``values``
        their 0/1 values in batch order; the cascade runs one level at
        a time, deepest first, so parents always see their newly
        settled children in a single sweep.
        """
        if batch.shape[0] <= selection.SCALAR_MAX:
            self._settle_scalar(batch.tolist(), values.tolist())
            return
        arrays = self.arrays
        settled, value = self.settled, self.value
        parents = arrays.parents
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
        buckets = depth_buckets(batch, arrays.depths)
        self.walk.settled_at(min(buckets))
        for depth in range(max(buckets), 0, -1):
            parts = buckets.get(depth)
            if not parts:
                continue
            nodes = (
                parts[0] if len(parts) == 1
                else np.sort(np.concatenate(parts))
            )
            up = parents[nodes]
            alive = ~settled[up]
            nodes, up = nodes[alive], up[alive]
            if nodes.shape[0] == 0:
                continue
            # Siblings are adjacent: one run per parent.
            starts = run_starts(up)
            np.add.at(self.undetermined, up, -1)
            absorbed = np.logical_or.reduceat(
                value[nodes] == gate_abs[up], starts
            )
            up = up[starts]
            newly_mask = absorbed | (self.undetermined[up] == 0)
            newly = up[newly_mask]
            if newly.shape[0]:
                settled[newly] = True
                value[newly] = np.where(
                    absorbed[newly_mask], gate_on[newly], gate_other[newly]
                )
                self.walk.settled_at(depth - 1)
                buckets.setdefault(depth - 1, []).append(newly)

    def _settle_scalar(self, batch: List[int], values: List[float]) -> None:
        """:meth:`evaluate_batch` on Python scalars, one leaf at a time.

        Each leaf settles its parent while the parent is live and the
        leaf's value absorbs or was the last undetermined child, then
        the parent does the same for its own parent — the reference
        cascade, which the level sweep equals.
        """
        (parents, depths, settled, value, undetermined,
         gate_abs, gate_on, gate_other) = self._views
        shallowest = self.arrays.height
        for node, leaf_value in zip(batch, values):  # lint: disable=R12
            node_value = int(leaf_value)
            settled[node] = True
            value[node] = node_value
            depth = depths[node]
            while depth:
                up = parents[node]
                if settled[up]:
                    break
                undetermined[up] -= 1
                if node_value == gate_abs[up]:
                    node_value = gate_on[up]
                elif undetermined[up]:
                    break
                else:
                    node_value = gate_other[up]
                settled[up] = True
                value[up] = node_value
                node, depth = up, depth - 1
            shallowest = min(shallowest, depth)
        self.walk.settled_at(shallowest)


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
    """The Boolean arena run — ``run_boolean``'s step driver over columns.

    ``evaluate`` is the only seam between executors: the inline engines
    below pass ``arrays.values.take`` (a gather from the lowered
    column), a :class:`~repro.core.shm.ShmSession` passes its pool.
    """
    policy_name, select = selection
    arena = _BooleanArena(arrays)
    node_ids = arrays.node_ids

    def apply(batch_idx: np.ndarray) -> Tuple[List[NodeId], None]:
        arena.evaluate_batch(batch_idx, evaluate(batch_idx))
        return node_ids[batch_idx].tolist(), None

    trace, evaluated = run_steps(
        SOLVE, policy_name, lambda: select(arena), apply,
        lambda: arena.settled[0],
        keep_batches=keep_batches, max_steps=max_steps, recorder=recorder,
    )
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
    width = check_count(width, 0, "width must be >= 0")
    if max_processors is None:

        def select(arena: _BooleanArena) -> np.ndarray:
            return select_width(
                arena.arrays, arena.settled, width, arena.budget, arena.walk
            )

        return f"parallel-solve(w={width}, arena)", select

    processors = check_count(
        max_processors, 1, "need at least one processor"
    )

    def select_bounded(arena: _BooleanArena) -> np.ndarray:
        leaves = select_width(
            arena.arrays, arena.settled, width, arena.budget, arena.walk
        )
        scores = width - arena.budget[leaves]
        return most_urgent(leaves, scores, width, processors)

    return (
        f"parallel-solve(w={width}, p={processors}, arena)",
        select_bounded,
    )


def team_selection(processors: int) -> Selection:
    """Team SOLVE's selection: the leftmost ``processors`` live leaves."""
    processors = check_count(
        processors, 1, "Team SOLVE needs at least one processor"
    )

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
