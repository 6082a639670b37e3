"""Arena engine for the pruning process (sequential/parallel alpha-beta).

Mirrors :func:`repro.core.alphabeta.engine.run_minmax` step for step:
select unfinished leaves of the pruned tree by pruning number, finish
them, then apply free propagation/pruning to fixpoint.
:func:`run_alpha_beta` is the only alpha-beta arena run, on the same
step driver (:func:`repro.core.steps.run_steps`); like the Boolean one
it takes a leaf evaluator, so the inline engine and the shared-memory
executor (:mod:`repro.core.shm`) share it.

The key equivalence: one pass of
:func:`~repro.core.alphabeta.engine._prune_pass` is a *pure top-down
function of the start-of-pass state*.  No node on the DFS stack can be
settled mid-pass (a cascade finish needs every child settled, and any
on-stack node is unfinished), sibling-subtree cascades travel strictly
upward, and the prune condition ``alpha >= beta`` is constant across
one node's children — so the set of nodes pruned in a pass (and hence
the pass's prune *count*, which feeds the ``pruned=`` span attribute)
is what a level-synchronous sweep over that state computes.

This module computes that set without sweeping from the root.  Bounds
only tighten, and a node's bounds change only when a node on its root
path gains a finished child.  So alpha and beta are persistent
per-node columns: a finish folds its value into its parent's bound
once and marks the parent *dirty*; a newly touched node inherits its
parent's bounds (it has no finished child yet); every other node keeps
the bounds an earlier round gave it, and those did not cut, or its open
children would have been pruned and it would have finished.  A round
sweeps down level by level from the shallowest dirty node, merging
each visited node's incoming bounds with ``maximum`` / ``minimum``.
At each depth it adds that depth's dirty nodes, except those inside a
subtree doomed earlier in the same sweep, which the root pass never
reaches.  Every node whose bounds can cut is then visited with the
bounds the root pass gives it, so the round prunes exactly what the
root pass prunes, count included.  Prunes are applied after the sweep
and their finish cascade runs level-batched bottom-up.
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
from .boolean import LeafEvaluator
from .selection import WidthWalk, children_of_many, select_width

__all__ = ["arena_alpha_beta"]

_INF = float("inf")
_EMPTY = np.empty(0, dtype=np.int64)


def _runs(ascending: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in a sorted array."""
    heads = np.empty(ascending.shape[0], dtype=bool)
    heads[0] = True
    np.not_equal(ascending[1:], ascending[:-1], out=heads[1:])
    return heads.nonzero()[0]


class _AlphaBetaArena:
    """Mutable run state of one pruning-process arena evaluation."""

    def __init__(self, arrays: CanonicalArrays) -> None:
        self.arrays = arrays
        n = arrays.n_nodes
        self.finished = np.zeros(n, dtype=bool)
        self.pruned = np.zeros(n, dtype=bool)
        #: finished-or-pruned; the walk's settled predicate.
        self.settled = np.zeros(n, dtype=bool)
        self.touched = np.zeros(n, dtype=bool)
        self.finished_value = np.zeros(n, dtype=np.float64)
        #: unfinished-children counters (garbage once a node settles).
        self.unfinished = arrays.arities.astype(np.int64)
        #: width-walk budget scratch and the levels it kept last step.
        self.budget = np.zeros(n, dtype=np.int64)
        self.walk = WidthWalk()
        #: the bounds each node passes to its children.  Persistent and
        #: monotone: a finish raises (MAX parent) or lowers (MIN parent)
        #: its parent's bound once, and a sweep merges each visited
        #: node's incoming bounds with ``maximum`` / ``minimum``.
        self.alpha = np.full(n, -_INF)
        self.beta = np.full(n, _INF)
        #: depth -> sorted unique arrays of nodes that gained a finished
        #: child since the last sweep (settled ones are dropped there).
        self._dirty: Dict[int, List[np.ndarray]] = {}
        #: scratch set-membership column, all False between uses.
        self._mark = np.zeros(n, dtype=bool)

    # -- finishing ---------------------------------------------------------
    def finish_leaves(self, batch: np.ndarray, values: np.ndarray) -> None:
        """Finish a sorted batch of distinct unfinished leaves and cascade.

        ``values`` holds the batch's leaf values in batch order, as the
        run's leaf evaluator returned them.
        """
        self.finished[batch] = True
        self.settled[batch] = True
        self.finished_value[batch] = values
        depths = self.arrays.depths[batch]
        buckets: Dict[int, List[np.ndarray]] = {}
        for depth in np.unique(depths).tolist():
            buckets[depth] = [batch[depths == depth]]
        self.walk.settled_at(min(buckets))
        self._mark_touched(buckets)
        for depth, parts in buckets.items():
            if depth:
                self._tighten(parts[0], depth)
        self._cascade(buckets)

    def _mark_touched(self, buckets: Dict[int, List[np.ndarray]]) -> None:
        """Mark the leaves and their ancestors touched (stop at touched).

        A newly touched internal node has no finished child yet, so it
        passes its parent's bounds down unchanged: it inherits them,
        top-down, before any finish tightens them.
        """
        touched, parents = self.touched, self.arrays.parents
        fresh: List[np.ndarray] = []
        carry = _EMPTY
        for depth in range(max(buckets), 0, -1):
            parts = buckets.get(depth)
            if parts:
                touched[parts[0]] = True
                carry = (
                    parts[0] if carry.shape[0] == 0
                    else np.sort(np.concatenate((carry, parts[0])))
                )
            elif carry.shape[0] == 0:
                continue
            up = parents[carry]
            up = up[_runs(up)]
            carry = up[~touched[up]]
            touched[carry] = True
            if depth > 1:
                fresh.append(carry)
        if 0 in buckets:
            touched[0] = True
        for level in reversed(fresh):
            up = parents[level]
            self.alpha[level] = self.alpha[up]
            self.beta[level] = self.beta[up]

    def _tighten(self, nodes: np.ndarray, depth: int) -> None:
        """Fold freshly finished depth-``depth`` nodes into their parents.

        ``nodes`` is sorted, so siblings are adjacent and one segmented
        reduce per parent raises alpha (MAX parent, odd ``depth``) or
        lowers beta (MIN parent); the parents become dirty.
        """
        up = self.arrays.parents[nodes]
        starts = _runs(up)
        up = up[starts]
        values = self.finished_value[nodes]
        if depth % 2:
            self.alpha[up] = np.maximum(
                self.alpha[up], np.maximum.reduceat(values, starts)
            )
        else:
            self.beta[up] = np.minimum(
                self.beta[up], np.minimum.reduceat(values, starts)
            )
        self._dirty.setdefault(depth - 1, []).append(up)

    def _cascade(self, buckets: Dict[int, List[np.ndarray]]) -> None:
        """Propagate finishes upward from newly settled nodes.

        ``buckets`` maps depth to arrays of nodes that settled this
        round (finished leaves or freshly pruned nodes).  A parent
        finishes when its unfinished-children counter reaches zero,
        with the MAX/MIN of its non-pruned children's values; if every
        child was pruned, the pruning pass violated top-down order.
        """
        arrays = self.arrays
        parents, levels = arrays.parents, arrays.levels
        settled, finished = self.settled, self.finished
        values = self.finished_value
        for depth in range(max(buckets), 0, -1):
            parts = buckets.get(depth)
            if not parts:
                continue
            nodes = (
                parts[0] if len(parts) == 1
                else np.sort(np.concatenate(parts))
            )
            up = parents[nodes]
            up = up[~settled[up]]
            if up.shape[0] == 0:
                continue
            np.add.at(self.unfinished, up, -1)
            done = up[_runs(up)]
            done = done[self.unfinished[done] == 0]
            if done.shape[0] == 0:
                continue
            kids, segment = children_of_many(arrays, done, levels[depth])
            surviving = ~self.pruned[kids]
            kids, segment = kids[surviving], segment[surviving]
            counts = np.bincount(segment, minlength=done.shape[0])
            orphaned = done[counts == 0]
            if orphaned.shape[0]:
                node = arrays.node_ids[int(orphaned[0])]
                raise PruningInvariantError(
                    f"every child of {node!r} was pruned while {node!r} "
                    f"survived — the pruning pass violated top-down order"
                )
            # MAX at even depth: finish with the max of the non-pruned
            # (hence finished) children, one contiguous run per parent;
            # MIN at odd depth dually.
            fold = np.maximum if (depth - 1) % 2 == 0 else np.minimum
            starts = counts.cumsum() - counts
            values[done] = fold.reduceat(values[kids], starts)
            finished[done] = True
            settled[done] = True
            self.walk.settled_at(depth - 1)
            if depth > 1:
                self._tighten(done, depth - 1)
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
        """One round of the pruning rule, from the dirty nodes down.

        Only nodes at or below a dirty node can have changed bounds;
        everywhere else the bounds are the ones the last round left
        uncut.  Starting at the shallowest dirty depth, each level
        merges in that depth's dirty nodes, skipping any inside a
        subtree doomed earlier in this sweep, then sweeps down exactly
        as a full pass from the root would.  Prunes (and their finish
        cascades) are applied after the sweep — the argument in the
        module docstring makes the round prune what one reference DFS
        pass prunes, count included.
        """
        dirty, self._dirty = self._dirty, {}
        if not dirty or self.finished[0]:
            return 0
        arrays = self.arrays
        parents, levels = arrays.parents, arrays.levels
        alpha, beta, mark = self.alpha, self.beta, self._mark
        settled = self.settled
        deepest = max(dirty)
        visited = _EMPTY
        prunes: Dict[int, np.ndarray] = {}
        for depth in range(min(dirty), arrays.height):
            if visited.shape[0]:
                # Reached by descent: merge the parent's fresh bounds.
                # A dirty node reached otherwise has a parent whose
                # bounds did not change, so its own already hold them.
                up = parents[visited]
                alpha[visited] = np.maximum(alpha[visited], alpha[up])
                beta[visited] = np.minimum(beta[visited], beta[up])
            parts = dirty.get(depth)
            if parts:
                extra = (
                    parts[0] if len(parts) == 1
                    else np.unique(np.concatenate(parts))
                )
                extra = extra[~settled[extra]]
                if extra.shape[0] and visited.shape[0]:
                    mark[visited] = True
                    extra = extra[~mark[extra]]
                    mark[visited] = False
                if extra.shape[0] and prunes:
                    extra = extra[~self._below_doomed(extra, prunes)]
                if extra.shape[0]:
                    visited = (
                        extra if visited.shape[0] == 0
                        else np.sort(np.concatenate((visited, extra)))
                    )
            if visited.shape[0] == 0:
                if depth >= deepest:
                    break
                continue
            cut = alpha[visited] >= beta[visited]
            children, segment = children_of_many(
                arrays, visited, levels[depth + 1]
            )
            cut = cut[segment]
            open_child = ~settled[children]
            doomed = children[cut & open_child]
            if doomed.shape[0]:
                prunes[depth + 1] = doomed
            descend = (
                ~cut & open_child
                & ~arrays.is_leaf[children] & self.touched[children]
            )
            visited = children[descend]

        if not prunes:
            return 0
        count = 0
        buckets: Dict[int, List[np.ndarray]] = {}
        for depth, doomed in prunes.items():
            count += int(doomed.shape[0])
            self.pruned[doomed] = True
            settled[doomed] = True
            buckets[depth] = [doomed]
        self.walk.settled_at(min(prunes))
        self._cascade(buckets)
        return count

    def _below_doomed(
        self, nodes: np.ndarray, prunes: Dict[int, np.ndarray]
    ) -> np.ndarray:
        """Which ``nodes`` lie in (or are) a subtree doomed this sweep.

        A sweep never descends into a doomed node, so doomed subtrees
        are disjoint preorder spans: ``nodes[i]`` is inside one iff it
        is below the span of the last doomed node at or before it.
        """
        starts = np.concatenate(list(prunes.values()))
        if len(prunes) > 1:
            starts.sort()
        pos = np.searchsorted(starts, nodes, side="right") - 1
        owner = starts[np.maximum(pos, 0)]
        return (pos >= 0) & (nodes < owner + self.arrays.spans[owner])


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
