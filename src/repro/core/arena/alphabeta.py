"""Arena engine for the pruning process (sequential/parallel alpha-beta).

Mirrors :func:`repro.core.alphabeta.engine.run_minmax` step for step:
select unfinished leaves of the pruned tree by pruning number, finish
them, then apply free propagation/pruning to fixpoint.
:func:`run_alpha_beta` is the only alpha-beta arena loop; like the
Boolean one it takes a leaf evaluator, so the inline engine and the
shared-memory executor (:mod:`repro.core.shm`) share it.

The key equivalence: one pass of
:func:`~repro.core.alphabeta.engine._prune_pass` is a *pure top-down
function of the start-of-pass state*.  No node on the DFS stack can be
settled mid-pass (a cascade finish needs every child settled, and any
on-stack node is unfinished), sibling-subtree cascades travel strictly
upward, and the prune condition ``alpha >= beta`` is constant across
one node's children — so the set of nodes pruned in a pass (and hence
the pass's prune *count*, which feeds the ``pruned=`` span attribute)
is exactly what a level-synchronous sweep over a snapshot computes.
This module runs that sweep: bounds propagate down one level at a
time over full-size alpha/beta columns, prunes are collected, and the
finish cascade is applied level-batched bottom-up afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ...errors import ModelViolationError, PruningInvariantError
from ...models.accounting import EvalResult, ExecutionTrace
from ...telemetry import Recorder, live
from ...trees.base import GameTree, NodeId
from ...trees.canonical import CanonicalArrays, canonical_arrays
from .boolean import LeafEvaluator
from .selection import children_of_many, select_width

__all__ = ["arena_alpha_beta"]

_INF = float("inf")


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
        self.budget = np.zeros(n, dtype=np.int64)
        #: child alpha/beta bounds, written top-down before every read.
        self.alpha = np.zeros(n, dtype=np.float64)
        self.beta = np.zeros(n, dtype=np.float64)

    # -- finishing ---------------------------------------------------------
    def finish_leaves(self, batch: np.ndarray, values: np.ndarray) -> None:
        """Finish a batch of distinct unfinished leaves and cascade.

        ``values`` holds the batch's leaf values in batch order, as the
        run's leaf evaluator returned them.
        """
        self._mark_touched(batch)
        self.finished[batch] = True
        self.settled[batch] = True
        self.finished_value[batch] = values
        depths = self.arrays.depths[batch]
        buckets: Dict[int, List[np.ndarray]] = {}
        for depth in np.unique(depths).tolist():
            buckets[depth] = [batch[depths == depth]]
        self._cascade(buckets)

    def _mark_touched(self, batch: np.ndarray) -> None:
        """Mark the batch and its ancestors touched (stop at touched)."""
        touched, parents = self.touched, self.arrays.parents
        current = batch
        while current.shape[0]:
            current = current[~touched[current]]
            if current.shape[0] == 0:
                break
            touched[current] = True
            current = current[current != 0]
            current = np.unique(parents[current])

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
            nodes = parts[0] if len(parts) == 1 else np.concatenate(parts)
            up = parents[nodes]
            up = up[~settled[up]]
            if up.shape[0] == 0:
                continue
            np.add.at(self.unfinished, up, -1)
            done = np.unique(up)
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
            # (hence finished) children; MIN at odd depth dually.
            acc = self.alpha  # reuse the bounds column as accumulator
            if (depth - 1) % 2 == 0:
                acc[done] = -_INF
                np.maximum.at(acc, done[segment], values[kids])
            else:
                acc[done] = _INF
                np.minimum.at(acc, done[segment], values[kids])
            values[done] = acc[done]
            finished[done] = True
            settled[done] = True
            buckets.setdefault(depth - 1, []).append(done)

    # -- pruning -----------------------------------------------------------
    def prune_to_fixpoint(self) -> int:
        total = 0
        while True:
            pruned_now = self._prune_pass()
            total += pruned_now
            if pruned_now == 0:
                return total

    def _prune_pass(self) -> int:
        """One level-synchronous sweep of the pruning rule.

        Bounds and prune decisions read the start-of-pass state only;
        prunes (and their finish cascades) are applied after the full
        sweep — the purity argument in the module docstring makes this
        equivalent to the reference DFS pass, prune count included.
        """
        if self.finished[0]:
            return 0
        arrays = self.arrays
        parents, levels = arrays.parents, arrays.levels
        alpha, beta = self.alpha, self.beta
        finished, pruned, settled = self.finished, self.pruned, self.settled
        values = self.finished_value

        alpha[0], beta[0] = -_INF, _INF
        visited = np.zeros(1, dtype=np.int64)
        prunes: Dict[int, np.ndarray] = {}
        for depth, level in enumerate(levels[1:]):
            children, segment = children_of_many(arrays, visited, level)
            if children.shape[0] == 0:
                break
            # Sharpen the bound each visited node passes down with its
            # finished non-pruned children (MAX tightens alpha at even
            # depths, MIN tightens beta at odd depths).
            fin = children[finished[children] & ~pruned[children]]
            if depth % 2 == 0:
                np.maximum.at(alpha, parents[fin], values[fin])
            else:
                np.minimum.at(beta, parents[fin], values[fin])
            up = visited[segment]
            cut = alpha[up] >= beta[up]
            open_child = ~settled[children]
            doomed = children[cut & open_child]
            if doomed.shape[0]:
                prunes[depth + 1] = doomed
            descend = (
                ~cut & open_child
                & ~arrays.is_leaf[children] & self.touched[children]
            )
            visited = children[descend]
            if visited.shape[0] == 0:
                break
            alpha[visited] = alpha[parents[visited]]
            beta[visited] = beta[parents[visited]]

        if not prunes:
            return 0
        count = 0
        buckets: Dict[int, List[np.ndarray]] = {}
        for depth, doomed in prunes.items():
            count += int(doomed.shape[0])
            pruned[doomed] = True
            settled[doomed] = True
            buckets[depth] = [doomed]
        self._cascade(buckets)
        return count


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
    if width < 0:
        raise ValueError("width must be >= 0")
    rec = live(recorder)
    arena = _AlphaBetaArena(arrays)
    trace = ExecutionTrace(keep_batches=keep_batches)
    evaluated: List[NodeId] = []
    node_ids = arrays.node_ids
    name = f"parallel-alpha-beta(w={width}, arena)"

    step = 0
    while not arena.finished[0]:
        batch_idx = select_width(arrays, arena.settled, width, arena.budget)
        if batch_idx.shape[0] == 0:
            raise ModelViolationError(
                f"policy {name!r} selected no leaves while the root is "
                f"unfinished"
            )
        arena.finish_leaves(batch_idx, evaluate(batch_idx))
        pruned = arena.prune_to_fixpoint()
        batch: List[NodeId] = node_ids[batch_idx].tolist()
        trace.record(batch)
        evaluated.extend(batch)
        if rec is not None:
            rec.advance(step + 1)
            rec.add_span(
                "step", step, step + 1, track="alphabeta",
                degree=len(batch), pruned=pruned,
            )
            rec.count("alphabeta.leaves_evaluated", len(batch))
            if pruned:
                rec.count("alphabeta.pruned", pruned)
            rec.sample("alphabeta.degree", len(batch), track="alphabeta")
        step += 1
        if max_steps is not None and step > max_steps:
            raise ModelViolationError(f"exceeded {max_steps} steps")

    if rec is not None:
        rec.count("alphabeta.steps", step)
        rec.gauge("alphabeta.processors", trace.processors)
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
