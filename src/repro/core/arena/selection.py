"""Vectorised frontier selection over :class:`CanonicalArrays` columns.

The three selection primitives every backend shares, as level-batched
array sweeps instead of per-node DFS:

* :func:`select_width` — the budgeted width-w walk ("all live leaves
  with pruning number at most w").  Equivalent to
  :func:`repro.core.policies.select_with_pruning_numbers`: at each
  level the candidate children of in-range parents are gathered by
  their ``child_start`` slices, settled siblings are dropped (they never
  cost budget), and the per-parent live index is recovered with a
  segmented scan — ``child_budget = parent_budget - live_index``,
  keep iff ``>= 0``.
* :func:`select_frontier` — the unbounded liveness walk (every live
  terminal), the Team/Saturation selection.
* :func:`most_urgent` — the fixed-machine cap: of the in-range
  leaves, the ``processors`` with the smallest pruning number,
  leftmost on ties, via counting sort.  Bit-identical to
  :meth:`repro.core.frontier.FrontierIndex.most_urgent`.

All functions take a ``settled`` boolean column as *the* liveness
input, so the Boolean model (settled = determined) and the pruning
process (settled = finished or pruned) share the kernels.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ...trees.canonical import CanonicalArrays

__all__ = [
    "select_width",
    "select_frontier",
    "most_urgent",
    "children_of_many",
]

_EMPTY = np.empty(0, dtype=np.int64)


def children_of_many(
    arrays: CanonicalArrays,
    parents_sel: np.ndarray,
    level: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All children of ``parents_sel`` that lie on ``level``.

    ``parents_sel`` must be sorted ascending and all lie one depth
    above ``level`` (the sorted preorder-index array of one depth).
    The children of ``v`` are one contiguous slice of ``level``
    starting at ``child_start[v]``, ``arities[v]`` long, so a gather
    and one segmented ``arange`` replace the per-node child walk.

    Returns ``(children, segment)`` where ``segment[j]`` indexes the
    parent of ``children[j]`` in ``parents_sel``; children appear in
    global preorder (parents are sorted and subtrees are disjoint).
    """
    lens = arrays.arities[parents_sel]
    count = parents_sel.shape[0]
    ends = lens.cumsum()
    total = int(ends[-1]) if count else 0
    if total == 0:
        return _EMPTY, _EMPTY
    segment = np.arange(count).repeat(lens)
    # Shift each parent's run so that arange(total) lands on its slice.
    shift = arrays.child_start[parents_sel] - ends + lens
    return level[np.arange(total) + shift[segment]], segment


def _live_index(segment: np.ndarray) -> np.ndarray:
    """Position of each entry within its (contiguous) segment run."""
    idx = np.arange(segment.shape[0])
    boundary = np.empty(segment.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = segment[1:] != segment[:-1]
    seg_start = np.maximum.accumulate(np.where(boundary, idx, 0))
    return idx - seg_start


def select_width(
    arrays: CanonicalArrays,
    settled: np.ndarray,
    width: int,
    budget: np.ndarray,
) -> np.ndarray:
    """Preorder indices of live leaves with pruning number <= ``width``.

    ``budget`` is a reusable per-node int64 scratch column; on return
    ``width - budget[leaf]`` is each selected leaf's exact pruning
    number (the walk writes budgets only for the nodes it keeps, and
    every read follows a same-call write, so no clearing is needed).
    """
    if settled[0]:
        return _EMPTY
    budget[0] = width
    if arrays.is_leaf[0]:
        return np.zeros(1, dtype=np.int64)
    frontier_levels = []
    kept = np.zeros(1, dtype=np.int64)
    for level in arrays.levels[1:]:
        children, segment = children_of_many(arrays, kept, level)
        if children.shape[0] == 0:
            break
        live = ~settled[children]
        children, segment = children[live], segment[live]
        if children.shape[0] == 0:
            break
        child_budget = budget[kept[segment]] - _live_index(segment)
        in_range = child_budget >= 0
        children = children[in_range]
        budget[children] = child_budget[in_range]
        leafy = arrays.is_leaf[children]
        leaves = children[leafy]
        if leaves.shape[0]:
            frontier_levels.append(leaves)
        kept = children[~leafy]
        if kept.shape[0] == 0:
            break
    if not frontier_levels:
        return _EMPTY
    return np.sort(np.concatenate(frontier_levels))


def select_frontier(
    arrays: CanonicalArrays, settled: np.ndarray
) -> np.ndarray:
    """Preorder indices of *all* live leaves (unbounded liveness walk).

    A leaf is live when neither it nor any ancestor is settled — the
    Team/Saturation frontier.
    """
    if settled[0]:
        return _EMPTY
    if arrays.is_leaf[0]:
        return np.zeros(1, dtype=np.int64)
    frontier_levels = []
    kept = np.zeros(1, dtype=np.int64)
    for level in arrays.levels[1:]:
        children, _segment = children_of_many(arrays, kept, level)
        if children.shape[0] == 0:
            break
        children = children[~settled[children]]
        if children.shape[0] == 0:
            break
        leafy = arrays.is_leaf[children]
        leaves = children[leafy]
        if leaves.shape[0]:
            frontier_levels.append(leaves)
        kept = children[~leafy]
        if kept.shape[0] == 0:
            break
    if not frontier_levels:
        return _EMPTY
    return np.sort(np.concatenate(frontier_levels))


def most_urgent(
    leaves: np.ndarray,
    scores: np.ndarray,
    width: int,
    processors: int,
) -> np.ndarray:
    """The ``processors`` lowest-score leaves, leftmost on ties.

    ``leaves`` must be in preorder; the result is too.  Counting sort
    over scores in ``[0, width]``, then the quota of cutoff-score
    holders is consumed left to right — the exact tie-break of
    :meth:`~repro.core.frontier.FrontierIndex.most_urgent` and
    :func:`~repro.core.policies.rank_by_urgency`.
    """
    if leaves.shape[0] <= processors:
        return leaves
    counts = np.bincount(scores, minlength=width + 1)
    cumulative = np.cumsum(counts)
    cutoff = int(np.searchsorted(cumulative, processors))
    quota = processors - (int(cumulative[cutoff - 1]) if cutoff else 0)
    at_cutoff = scores == cutoff
    take = (scores < cutoff) | (at_cutoff & (np.cumsum(at_cutoff) <= quota))
    return leaves[take]
