"""Arena engine for the pruning process (sequential/parallel alpha-beta).

Mirrors :func:`repro.core.alphabeta.engine.run_minmax` step for step:
select unfinished leaves of the pruned tree by pruning number, finish
them, then apply free propagation/pruning to fixpoint.
:func:`run_alpha_beta` is the only alpha-beta arena run, on the same
step driver (:func:`repro.core.steps.run_steps`); like the Boolean one
it takes a leaf evaluator, so the inline engine and the shared-memory
executor (:mod:`repro.core.shm`) share it.

One pass of :func:`~repro.core.alphabeta.engine._prune_pass` visits
every touched node whose root path is unsettled and passes no cut
node, and prunes the open children of each visited node that cuts.
A node's bounds are the best finished-child values on its root path:
alpha the max over its MAX ancestors (itself included), beta the min
over its MIN ones.  So a prune round here is that definition, as one
set of array operations over the live touched nodes: each node's
*gain* (the max, at MAX nodes, or min, at MIN nodes, of its finished
children) is read through a per-node ancestor table, a node cuts when
alpha >= beta, and since a cut passes down its root path, the pass's
cut nodes are the cutting candidates whose parent does not cut.  Each
loses all its open children, so it finishes with its gain; the finish
cascade then runs level-batched bottom-up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ...errors import PruningInvariantError
from ...models.accounting import EvalResult
from ...telemetry import Recorder
from ...trees.base import GameTree, NodeId
from ...trees.canonical import CanonicalArrays, canonical_arrays
from ..policies import check_count
from ..steps import ALPHABETA, run_steps
from .boolean import LeafEvaluator, depth_buckets, run_starts
from .selection import WidthWalk, select_width

__all__ = ["arena_alpha_beta"]

_INF = float("inf")
_EMPTY = np.empty(0, dtype=np.int64)


class _AlphaBetaArena:
    """Mutable run state of one pruning-process arena evaluation.

    Two slots past the nodes serve as sentinels in the ancestor table:
    ``n`` fills the MAX (even-depth) rows past a node's depth, ``n + 1``
    the MIN ones.  Their gains (-inf, +inf) are neutral.
    """

    def __init__(self, arrays: CanonicalArrays) -> None:
        self.arrays = arrays
        n = arrays.n_nodes
        parents, is_leaf = arrays.parents, arrays.is_leaf
        self.finished = np.zeros(n, dtype=bool)
        self.pruned = np.zeros(n, dtype=bool)
        #: finished-or-pruned; the walk's settled predicate.
        self.settled = np.zeros(n, dtype=bool)
        self.finished_value = np.zeros(n, dtype=np.float64)
        #: unfinished-children counters (garbage once a node settles).
        self.unfinished = arrays.arities.astype(np.int64)
        #: width-walk budget scratch and the levels it kept last step.
        self.budget = np.zeros(n, dtype=np.int64)
        self.walk = WidthWalk()
        #: the max (MAX node) or min (MIN node) of its finished
        #: children, and whether it has one.  NaN once the node settles.
        self.gain = np.full(n + 2, -_INF)
        self.gain[n + 1] = _INF
        self.has_finished_child = np.zeros(n, dtype=bool)
        #: touched internal nodes (the sentinels count as touched).
        self._touched = np.zeros(n + 2, dtype=bool)
        self._touched[n:] = True
        #: ``ancestors[d, rank[v]]``: internal node ``v``'s depth-``d``
        #: ancestor (``v`` at its own depth, a sentinel past it).  Ranks
        #: run level by level; the last column, the root's parent's
        #: (``rank[-1]``), holds sentinels only.
        internal = [level[~is_leaf[level]] for level in arrays.levels[:-1]]
        bounds = np.cumsum([0] + [level.shape[0] for level in internal])
        self._rank = np.full(n + 1, bounds[-1])
        ancestors = np.empty((len(internal), bounds[-1] + 1), np.int64)
        ancestors[0::2] = n
        ancestors[1::2] = n + 1
        for depth, level in enumerate(internal):
            cols = slice(bounds[depth], bounds[depth + 1])
            self._rank[level] = np.arange(cols.start, cols.stop)
            up = self._rank[parents[level]]
            ancestors[:depth, cols] = ancestors[:depth, up]
            ancestors[depth, cols] = level
            if depth % 2:
                self.gain[level] = _INF
        self._ancestors = ancestors
        #: every level in one array, and where each level starts in it.
        self._level_nodes = np.concatenate(arrays.levels)
        self._level_start = np.cumsum([0] + [len(lv) for lv in arrays.levels])
        #: touched internal nodes; a round drops those on or below a
        #: settled node, which never come back.
        self._live = _EMPTY
        #: scratch set-membership column, all False between uses (the
        #: root's parent, -1, reads the sentinel ``n + 1``).
        self._mark = np.zeros(n + 2, dtype=bool)

    # -- finishing ---------------------------------------------------------
    def finish_leaves(self, batch: np.ndarray, values: np.ndarray) -> None:
        """Finish a sorted batch of distinct unfinished leaves and cascade.

        ``values`` holds the batch's leaf values in batch order, as the
        run's leaf evaluator returned them.
        """
        self.finished[batch] = True
        self.settled[batch] = True
        self.finished_value[batch] = values
        # Row ``d`` lists the batch's depth-``d`` ancestors in preorder,
        # and a leaf between two below the same node is below it too: a
        # node's repeats are adjacent, also after the filter.
        path = self._ancestors.take(
            self._rank[self.arrays.parents[batch]], axis=1
        )
        fresh = path[~self._touched[path]]
        if fresh.shape[0]:
            fresh = fresh[run_starts(fresh)]
            self._touched[fresh] = True
            self._live = np.concatenate((self._live, fresh))
        self._cascade(depth_buckets(batch, self.arrays.depths))

    def _cascade(self, buckets: Dict[int, List[np.ndarray]]) -> None:
        """Propagate finishes upward from newly finished nodes.

        ``buckets`` maps depth to sorted arrays of nodes that finished
        this round (the walk learns of them here).  Each folds its
        value into its parent's gain; a parent finishes with its gain
        when its unfinished-children counter reaches zero.  Such a
        parent was unsettled: no node below a settled one is ever
        finished.
        """
        parents = self.arrays.parents
        finished, settled = self.finished, self.settled
        values, gain = self.finished_value, self.gain
        self.walk.settled_at(min(buckets))
        for depth in range(max(buckets), 0, -1):
            parts = buckets.get(depth)
            if not parts:
                continue
            nodes = (
                parts[0] if len(parts) == 1
                else np.sort(np.concatenate(parts))
            )
            every = parents[nodes]
            starts = run_starts(every)
            up = every[starts]
            # MAX at even depth, MIN at odd: siblings are adjacent, so
            # one segmented reduce per parent.
            fold = np.maximum if (depth - 1) % 2 == 0 else np.minimum
            gain[up] = fold(gain[up], fold.reduceat(values[nodes], starts))
            self.has_finished_child[up] = True
            np.add.at(self.unfinished, every, -1)
            done = up[self.unfinished[up] == 0]
            if done.shape[0] == 0:
                continue
            values[done] = gain[done]
            gain[done] = np.nan
            finished[done] = True
            settled[done] = True
            self.walk.settled_at(depth - 1)
            buckets.setdefault(depth - 1, []).append(done)

    # -- pruning -----------------------------------------------------------
    def prune_to_fixpoint(self) -> int:
        total = 0
        while True:
            pruned_now = self._sweep()
            total += pruned_now
            if pruned_now == 0:
                return total

    def _sweep(self) -> int:
        """One round of the pruning rule over every live touched node.

        Prunes (and counts) the open children of the cut nodes one
        reference DFS pass reaches — the cutting live nodes whose
        parent does not cut — then finishes those nodes with their
        gains and cascades.
        """
        if self.finished[0]:
            return 0
        live = self._live
        gains = self.gain[self._ancestors.take(self._rank[live], axis=1)]
        alpha = gains[0::2].max(axis=0, initial=-_INF)
        beta = gains[1::2].min(axis=0, initial=_INF)
        cut = alpha >= beta
        # Both folds keep a settled node's NaN gain, so the nodes on or
        # below one never cut and leave the live set here (as do those
        # below a NaN leaf's parent, which can never cut either).
        dead = np.isnan(alpha) | np.isnan(beta)
        if np.count_nonzero(dead):
            live, cut = live[~dead], cut[~dead]
            self._live = live
        if not np.count_nonzero(cut):
            return 0
        arrays, mark = self.arrays, self._mark
        cutting = live[cut]
        mark[cutting] = True
        top = cutting[~mark[arrays.parents[cutting]]]
        mark[cutting] = False
        orphaned = top[~self.has_finished_child[top]]
        if orphaned.shape[0]:
            node = arrays.node_ids[int(orphaned[0])]
            raise PruningInvariantError(
                f"every child of {node!r} was pruned while {node!r} "
                f"survived — the pruning pass violated top-down order"
            )
        # The children of ``v`` are one slice of its child level.
        top.sort()
        depths = arrays.depths[top]
        lens = arrays.arities[top]
        ends = lens.cumsum()
        first = self._level_start[depths + 1] + arrays.child_start[top]
        children = self._level_nodes[
            np.arange(int(ends[-1])) + np.repeat(first - ends + lens, lens)
        ]
        doomed = children[~self.settled[children]]
        self.pruned[doomed] = True
        self.settled[doomed] = True
        self.finished_value[top] = self.gain[top]
        self.gain[top] = np.nan
        self.gain[doomed] = np.nan
        self.finished[top] = True
        self.settled[top] = True
        self._cascade(depth_buckets(top, arrays.depths))
        return int(doomed.shape[0])


def run_alpha_beta(
    arrays: CanonicalArrays,
    width: int,
    evaluate: LeafEvaluator,
    *,
    keep_batches: bool,
    recorder: Optional[Recorder],
    max_steps: Optional[int] = None,
) -> EvalResult:
    """The pruning-process step loop of width ``width`` on the arena.

    Mirrors :func:`~repro.core.alphabeta.engine.run_minmax` call for
    call; ``evaluate`` supplies each step's leaf values (see
    :func:`~repro.core.arena.boolean.run_solve`).
    """
    width = check_count(width, 0, "width must be >= 0")
    arena = _AlphaBetaArena(arrays)
    node_ids = arrays.node_ids

    def apply(batch_idx: np.ndarray) -> Tuple[List[NodeId], int]:
        arena.finish_leaves(batch_idx, evaluate(batch_idx))
        return node_ids[batch_idx].tolist(), arena.prune_to_fixpoint()

    trace, evaluated = run_steps(
        ALPHABETA, f"parallel-alpha-beta(w={width}, arena)",
        lambda: select_width(
            arrays, arena.settled, width, arena.budget, arena.walk
        ),
        apply, lambda: arena.finished[0],
        keep_batches=keep_batches, max_steps=max_steps, recorder=recorder,
    )
    return EvalResult(float(arena.finished_value[0]), trace, evaluated)


def arena_alpha_beta(
    tree: GameTree,
    width: int = 0,
    *,
    keep_batches: bool = False,
    recorder: Optional[Recorder] = None,
    max_steps: Optional[int] = None,
) -> EvalResult:
    """The pruning process of width ``width`` on the arena backend.

    Width 0 is Sequential alpha-beta.  Leaves are evaluated inline, by
    a gather from the lowered ``values`` column.
    """
    arrays = canonical_arrays(tree)
    return run_alpha_beta(
        arrays, width, arrays.values.take,
        keep_batches=keep_batches, recorder=recorder, max_steps=max_steps,
    )
