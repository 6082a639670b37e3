"""Vectorised frontier selection over :class:`CanonicalArrays` columns.

The three selection primitives every backend shares, as level-batched
array sweeps instead of per-node DFS:

* :func:`select_width` — the budgeted width-w walk ("all live leaves
  with pruning number at most w").  Equivalent to
  :func:`repro.core.policies.budgeted_walk`: at each
  level the candidate children of in-range parents are gathered by
  their ``child_start`` slices, settled siblings are dropped (they never
  cost budget), and the per-parent live index is each child's offset
  from its segment's first entry (a ``bincount`` of the segment ids) —
  ``child_budget = parent_budget - live_index``, keep iff ``>= 0``.
  A :class:`WidthWalk` carried from step to step resumes the walk at
  the shallowest depth settled since the last call.
* :func:`select_frontier` — the unbounded liveness walk (every live
  terminal), the Team/Saturation selection.
* :func:`most_urgent` — the fixed-machine cap: of the in-range
  leaves, the ``processors`` with the smallest pruning number,
  leftmost on ties, via counting sort.  Bit-identical to
  :func:`repro.core.policies.rank_by_urgency`.

All functions take a ``settled`` boolean column as *the* liveness
input, so the Boolean model (settled = determined) and the pruning
process (settled = finished or pruned) share the kernels.

A narrow step touches a handful of nodes, and a numpy call on a
handful of entries costs more than the entries.  So a segment of at
most :data:`SCALAR_MAX` entries — a width-walk level with that few
kept parents here, a finish batch or cut round in
:mod:`.alphabeta`, a leaf batch in :mod:`.boolean` — runs the same
rule on Python scalars, over memoryviews of the columns.  Both paths
write the same entries and return the same arrays.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from ...trees.canonical import CanonicalArrays

__all__ = [
    "SCALAR_MAX",
    "memoryviews",
    "WidthWalk",
    "select_width",
    "select_frontier",
    "most_urgent",
    "children_of_many",
]

_EMPTY = np.empty(0, dtype=np.int64)

#: The largest segment that runs on Python scalars rather than numpy
#: calls: the crossover of the per-kernel timings in docs/arena.md
#: ("Performance model").
SCALAR_MAX = 24


def memoryviews(*columns: Any) -> Tuple[Any, ...]:
    """Memoryviews of numpy columns, for the scalar paths.

    Indexing one gives and takes Python scalars, several times faster
    than indexing the array.  Typed ``Any``: the ``memoryview`` stub
    types every item as an int, and some columns hold floats.
    """
    return tuple(map(memoryview, columns))


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
    """Position of each entry within its run of a sorted ``segment``.

    A run starts at the count of smaller ids, so one ``bincount`` and
    its exclusive prefix sum give every run's start in O(n).
    """
    counts = np.bincount(segment)
    return np.arange(segment.shape[0]) - (counts.cumsum() - counts)[segment]


class WidthWalk:
    """What :func:`select_width` kept at each level, for the next call.

    The walk's output at depth ``L`` depends only on ``settled`` at
    depths ``<= L`` and on the budgets it wrote at depth ``L - 1``.  So
    when nothing at depth ``< D`` settled since the last call, the kept
    internal nodes, frontier leaves and ``budget`` entries of those
    levels are what that call produced, and the walk resumes from the
    kept nodes of depth ``D - 1``.  Whoever sets ``settled`` reports
    the depth through :meth:`settled_at`; one walk serves one run
    (one ``arrays``, ``settled``, ``width`` and ``budget``).
    """

    def __init__(self) -> None:
        #: ``kept[d]``: the in-range internal nodes of depth ``d``.
        self.kept: List[np.ndarray] = []
        #: ``leaves[d]``: the selected leaves of depth ``d``.
        self.leaves: List[np.ndarray] = []
        #: the shallowest depth settled since the last call (0 before
        #: the first call: walk from the root).
        self.resume = 0
        #: memoryviews of the columns a scalar level reads and writes,
        #: made by the first call.
        self.views: Optional[Tuple[Any, ...]] = None

    def settled_at(self, depth: int) -> None:
        """Record that nodes of depth ``depth`` settled."""
        if depth < self.resume:
            self.resume = depth


def select_width(
    arrays: CanonicalArrays,
    settled: np.ndarray,
    width: int,
    budget: np.ndarray,
    walk: Optional[WidthWalk] = None,
) -> np.ndarray:
    """Preorder indices of live leaves with pruning number <= ``width``.

    ``budget`` is a reusable per-node int64 scratch column; on return
    ``width - budget[leaf]`` is each selected leaf's exact pruning
    number (the walk writes budgets only for the nodes it keeps, and
    every read follows a write of this call or of an earlier call
    whose level it reuses, so no clearing is needed).  ``walk``
    carries the levels from one call to the next (see
    :class:`WidthWalk`); without it the walk starts at the root.
    """
    if settled[0]:
        return _EMPTY
    if walk is None:
        walk = WidthWalk()
    kept_levels, leaf_levels = walk.kept, walk.leaves
    if walk.resume == 0:
        budget[0] = width
        if arrays.is_leaf[0]:
            return np.zeros(1, dtype=np.int64)
        kept_levels[:] = [np.zeros(1, dtype=np.int64)]
        leaf_levels[:] = [_EMPTY]
    else:
        # Levels from ``resume`` down are recomputed; past the end of
        # the last walk (it ran out of kept nodes) nothing can change.
        del kept_levels[walk.resume:], leaf_levels[walk.resume:]
    walk.resume = arrays.height + 1
    if walk.views is None:
        walk.views = memoryviews(
            arrays.arities, arrays.child_start, settled, arrays.is_leaf,
            budget, *arrays.levels,
        )
    kept = kept_levels[-1]
    first = len(kept_levels)
    for depth, level in enumerate(arrays.levels[first:], first):
        if kept.shape[0] == 0:
            break
        if kept.shape[0] <= SCALAR_MAX:
            leaves, kept = _scalar_level(walk.views, kept.tolist(), depth)
        else:
            children, segment = children_of_many(arrays, kept, level)
            live = ~settled[children]
            children, segment = children[live], segment[live]
            child_budget = budget[kept[segment]] - _live_index(segment)
            in_range = child_budget >= 0
            children = children[in_range]
            budget[children] = child_budget[in_range]
            leafy = arrays.is_leaf[children]
            leaves, kept = children[leafy], children[~leafy]
        leaf_levels.append(leaves)
        kept_levels.append(kept)
    return np.sort(np.concatenate(leaf_levels))


def _scalar_level(
    views: Tuple[Any, ...], kept: List[int], depth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One level of :func:`select_width` on Python scalars.

    Each kept parent's children are one slice of the depth-``depth``
    level; its live children take its budget minus their live index
    until the budget runs out.  Returns the level's selected leaves
    and kept internal nodes, as the numpy level does.
    """
    arities, child_start, settled, is_leaf, budget = views[:5]
    level = views[5 + depth]
    leaves: List[int] = []
    inner: List[int] = []
    # Per-node loops, bounded by SCALAR_MAX parents.
    for parent in kept:  # lint: disable=R12
        left = budget[parent]
        start = child_start[parent]
        stop = start + arities[parent]
        for child in level[start:stop]:  # lint: disable=R12
            if settled[child]:
                continue
            if left < 0:
                break
            budget[child] = left
            left -= 1
            (leaves if is_leaf[child] else inner).append(child)
    return (
        np.array(leaves, dtype=np.int64), np.array(inner, dtype=np.int64)
    )


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
