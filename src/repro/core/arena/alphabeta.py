"""Arena engine for the pruning process (sequential/parallel alpha-beta).

Mirrors :func:`repro.core.alphabeta.engine.run_minmax` step for step:
select unfinished leaves of the pruned tree by pruning number, finish
them, then apply free propagation/pruning to fixpoint.
:func:`run_alpha_beta` is the only alpha-beta arena run, on the same
step driver (:func:`repro.core.steps.run_steps`); like the Boolean one
it takes a leaf evaluator, so the inline engine and the shared-memory
executor (:mod:`repro.core.shm`) share it.

A round of the object-graph pruning fixpoint
(:func:`~repro.core.alphabeta.engine.prune_to_fixpoint`) prunes as a
top-down sweep would that visits every touched node whose root path is
unsettled and passes no cut node, pruning the open children of each
visited node that cuts.
A node's bounds are the best finished-child values on its root path:
alpha the max over its MAX ancestors (itself included), beta the min
over its MIN ones.  So a prune round here is that definition, as one
set of array operations over the live touched nodes: each node's
*gain* (the max, at MAX nodes, or min, at MIN nodes, of its finished
children) is read through a per-node ancestor table, a node cuts when
alpha >= beta, and since a cut passes down its root path, the sweep's
cut nodes are the cutting candidates whose parent does not cut.  Each
loses all its open children, so it finishes with its gain; the finish
cascade then runs level-batched bottom-up.

A finish batch or cut round of at most
:data:`~repro.core.arena.selection.SCALAR_MAX` nodes marks its root
paths and cascades on Python scalars instead, one root path at a time.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

import numpy as np

from ...errors import PruningInvariantError
from ...models.accounting import EvalResult
from ...telemetry import Recorder
from ...trees.base import GameTree, NodeId
from ...trees.canonical import CanonicalArrays, canonical_arrays
from ..steps import ALPHABETA, run_steps
from . import selection
from .boolean import (
    ArenaPolicy,
    LeafEvaluator,
    arena_selector,
    depth_buckets,
    run_starts,
)
from .selection import WidthWalk, select_width

__all__ = ["arena_alpha_beta"]

_INF = float("inf")
_NAN = float("nan")
_EMPTY = np.empty(0, dtype=np.int64)


class _Views(NamedTuple):
    """Memoryviews of an arena's columns, for the scalar paths."""

    parents: Any
    depths: Any
    arities: Any
    child_start: Any
    level_nodes: Any
    finished: Any
    settled: Any
    value: Any
    unfinished: Any
    gain: Any
    has_finished_child: Any
    touched: Any


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
        #: whether the last cut round's cascade finished a parent of a
        #: cut node (see :meth:`prune_to_fixpoint`).
        self._parent_finished = False
        self._views = _Views(*selection.memoryviews(
            parents, arrays.depths, arrays.arities, arrays.child_start,
            self._level_nodes, self.finished, self.settled,
            self.finished_value, self.unfinished, self.gain,
            self.has_finished_child, self._touched,
        ))
        self._level_start_list = self._level_start.tolist()

    # -- finishing ---------------------------------------------------------
    def finish_leaves(self, batch: np.ndarray, values: np.ndarray) -> None:
        """Finish a sorted batch of distinct unfinished leaves and cascade.

        ``values`` holds the batch's leaf values in batch order, as the
        run's leaf evaluator returned them.
        """
        if batch.shape[0] <= selection.SCALAR_MAX:
            self._finish_scalar(batch.tolist(), values.tolist())
            return
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
        self._cascade(batch)

    def _finish_scalar(self, batch: List[int], values: List[float]) -> None:
        """:meth:`finish_leaves` on Python scalars.

        Each leaf's walk up its root path stops at the first touched
        node (the touched set is closed upward; the root's parent reads
        a sentinel).  Sorting the fresh nodes by depth, stably, gives
        the order of the numpy path: by depth, then preorder.
        """
        views = self._views
        parents, finished, value = views.parents, views.finished, views.value
        settled, touched = views.settled, views.touched
        fresh: List[int] = []
        for leaf, leaf_value in zip(batch, values):  # lint: disable=R12
            finished[leaf] = settled[leaf] = True
            value[leaf] = leaf_value
            up = parents[leaf]
            while not touched[up]:
                touched[up] = True
                fresh.append(up)
                up = parents[up]
        if fresh:
            fresh.sort(key=views.depths.__getitem__)
            self._live = np.concatenate(
                (self._live, np.array(fresh, dtype=np.int64))
            )
        self._cascade_scalar(batch)

    def _cascade(self, nodes: np.ndarray) -> bool:
        """Propagate finishes upward from newly finished nodes.

        ``nodes`` is a sorted array of nodes that finished this round
        (the walk learns of them here).  Each folds its value into its
        parent's gain; a parent finishes with its gain when its
        unfinished-children counter reaches zero.  Such a parent was
        unsettled: no node below a settled one is ever finished.
        Returns whether some parent finished.
        """
        if nodes.shape[0] <= selection.SCALAR_MAX:
            return self._cascade_scalar(nodes.tolist())
        buckets = depth_buckets(nodes, self.arrays.depths)
        parents = self.arrays.parents
        finished, settled = self.finished, self.settled
        values, gain = self.finished_value, self.gain
        parent_finished = False
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
            values[done] = self._gain_value(done)
            gain[done] = np.nan
            finished[done] = True
            settled[done] = True
            parent_finished = True
            self.walk.settled_at(depth - 1)
            buckets.setdefault(depth - 1, []).append(done)
        return parent_finished

    def _cascade_scalar(self, nodes: List[int]) -> bool:
        """:meth:`_cascade` on Python scalars, one root path at a time.

        The fold keeps a NaN as ``np.maximum``/``np.minimum`` do, and
        takes the new value on ties as they do.  The finish order
        differs from the level sweep's, which changes nothing: a
        parent finishes once all its children have, with its gain (a
        max or min, whatever the order), and a zero gain's sign comes
        from the children in child order (:meth:`_gain_scalar`).
        """
        views = self._views
        parents, depths, value = views.parents, views.depths, views.value
        finished, settled, gain = views.finished, views.settled, views.gain
        unfinished = views.unfinished
        has_finished_child = views.has_finished_child
        shallowest = self.arrays.height
        parent_finished = False
        for node in nodes:  # lint: disable=R12
            depth = depths[node]
            while depth:
                up = parents[node]
                child_value, up_gain = value[node], gain[up]
                # ``up`` is a MAX node when ``node``'s depth is odd.
                if up_gain == up_gain and not (
                    up_gain > child_value if depth % 2
                    else up_gain < child_value
                ):
                    gain[up] = child_value
                has_finished_child[up] = True
                unfinished[up] -= 1
                if unfinished[up]:
                    break
                value[up] = self._gain_scalar(up)
                gain[up] = _NAN
                finished[up] = settled[up] = True
                parent_finished = True
                node, depth = up, depth - 1
            shallowest = min(shallowest, depth)
        self.walk.settled_at(shallowest)
        return parent_finished

    def _gain_scalar(self, node: int) -> float:
        """:meth:`_gain_value` of one node, on Python scalars."""
        views = self._views
        node_gain = views.gain[node]
        if node_gain != 0:
            return node_gain
        start = (
            self._level_start_list[views.depths[node] + 1]
            + views.child_start[node]
        )
        stop = start + views.arities[node]
        finished, value = views.finished, views.value
        for child in views.level_nodes[start:stop]:  # lint: disable=R12
            if finished[child] and value[child] == 0:
                return value[child]
        return node_gain

    def _gain_value(self, nodes: np.ndarray) -> np.ndarray:
        """The finish values of ``nodes``: their gains.

        A zero gain takes its sign from the first finished child that
        holds a zero, as Python's ``max``/``min`` over the children in
        child order (the object graph's fold) keep the first of equal
        values; the gain folded them in finish order.
        """
        values = self.gain[nodes]
        zero = values == 0
        if np.count_nonzero(zero):
            children = self._children(nodes[zero])
            held = children[
                self.finished[children]
                & (self.finished_value[children] == 0)
            ]
            first = held[run_starts(self.arrays.parents[held])]
            values[zero] = self.finished_value[first]
        return values

    def _children(self, nodes: np.ndarray) -> np.ndarray:
        """The children of internal ``nodes``, node by node.

        The children of ``v`` are one slice of its child level.
        """
        arrays = self.arrays
        lens = arrays.arities[nodes]
        ends = lens.cumsum()
        first = (
            self._level_start[arrays.depths[nodes] + 1]
            + arrays.child_start[nodes]
        )
        children = self._level_nodes[
            np.arange(int(ends[-1])) + np.repeat(first - ends + lens, lens)
        ]
        return children

    # -- pruning -----------------------------------------------------------
    def prune_to_fixpoint(self) -> int:
        """Run prune rounds until the next one would prune nothing.

        Returns the number of nodes pruned.  A cut round whose cascade
        finished no parent of a cut node ends the fixpoint without a
        confirming round, by this lemma: *such a round leaves every
        live node's alpha and beta as they were, so the next round
        finds no cut.*

        Proof.  Let ``t`` be a cut node and ``p`` its parent, which
        does not cut, so alpha(p) < beta(p).  Say ``p`` is a MAX node
        (the MIN case is the mirror image).  Then alpha(t) = alpha(p)
        and beta(t) = min(beta(p), gain(t)), so ``t`` cuts only if
        gain(t) <= alpha(p): ``t`` finishes with a value on ``p``'s
        side of its window.  Folding it into gain(p) leaves
        max(alpha(p), gain(t)) = alpha(p), and so the alpha and beta
        of every node, as long as ``p`` does not finish; a second cut
        child of ``p``, or a cut node below another such parent,
        meets the same unchanged bounds.  Every node that cut in the
        round is a cut node or lies below one, and the cut nodes have
        settled, so those nodes drop out of the live set; every other
        live node kept its bounds and still does not cut.  Only a
        cascade that finishes ``p`` (and so perhaps nodes above it)
        moves a bound, and only then can a new cut appear.
        """
        total = 0
        while True:
            pruned_now = self._sweep()
            total += pruned_now
            if pruned_now == 0 or not self._parent_finished:
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
        top.sort()
        children = self._children(top)
        doomed = children[~self.settled[children]]
        self.pruned[doomed] = True
        self.settled[doomed] = True
        self.finished_value[top] = self._gain_value(top)
        self.gain[top] = np.nan
        self.gain[doomed] = np.nan
        self.finished[top] = True
        self.settled[top] = True
        self._parent_finished = self._cascade(top)
        return int(doomed.shape[0])


def run_alpha_beta(
    arrays: CanonicalArrays,
    policy: ArenaPolicy,
    evaluate: LeafEvaluator,
    *,
    keep_batches: bool,
    recorder: Optional[Recorder],
    max_steps: Optional[int] = None,
) -> EvalResult:
    """The pruning-process step loop under ``policy`` on the arena.

    Mirrors :func:`~repro.core.alphabeta.engine.run_minmax` call for
    call; ``evaluate`` supplies each step's leaf values (see
    :func:`~repro.core.arena.boolean.run_solve`).
    """
    arena = _AlphaBetaArena(arrays)
    node_ids = arrays.node_ids

    def apply(batch_idx: np.ndarray) -> Tuple[List[NodeId], int]:
        arena.finish_leaves(batch_idx, evaluate(batch_idx))
        return node_ids[batch_idx].tolist(), arena.prune_to_fixpoint()

    trace, evaluated = run_steps(
        ALPHABETA, policy, arena_selector(policy, arena, select_width),
        apply, lambda: arena.finished[0],
        keep_batches=keep_batches, max_steps=max_steps, recorder=recorder,
    )
    return EvalResult(float(arena.finished_value[0]), trace, evaluated)


def arena_alpha_beta(
    tree: GameTree,
    policy: ArenaPolicy,
    *,
    keep_batches: bool = False,
    recorder: Optional[Recorder] = None,
    max_steps: Optional[int] = None,
) -> EvalResult:
    """The pruning process under ``policy`` on the arena backend.

    ``WidthPolicy(w)`` is Parallel alpha-beta of width w, and
    ``WidthPolicy(0)`` Sequential alpha-beta.  Leaves are evaluated
    inline, by a gather from the lowered ``values`` column.
    """
    arrays = canonical_arrays(tree)
    return run_alpha_beta(
        arrays, policy, arrays.values.take,
        keep_batches=keep_batches, recorder=recorder, max_steps=max_steps,
    )
