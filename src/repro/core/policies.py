"""Leaf-selection policies for the leaf-evaluation model.

A policy maps the current :class:`~repro.core.status.BooleanState` to
the batch of live leaves to evaluate at the next basic step.  The
paper's three algorithms are three policies:

* :class:`SequentialPolicy` — the leftmost live leaf (Sequential SOLVE);
* :class:`TeamPolicy` — the leftmost ``p`` live leaves (Team SOLVE);
* :class:`WidthPolicy` — all live leaves with pruning number at most
  ``w`` (Parallel SOLVE of width w; width 0 coincides with Sequential
  SOLVE).

Both selections run as a single left-to-right DFS that descends only
through undetermined nodes.  For :class:`WidthPolicy` the DFS carries a
*budget*: stepping past ``c`` live left-siblings at a node costs ``c``,
and branches whose cumulative cost exceeds the width are cut — this
enumerates exactly the live leaves with pruning number <= w, touching
only their ancestors.

The two DFS walks, :func:`leftmost_walk` and :func:`budgeted_walk`,
are the only object-graph copies: the pruning process and the
node-expansion model call them with their own ``settled`` container
(finished-or-pruned) and terminals (unexpanded nodes).
"""

from __future__ import annotations

import operator
from typing import Collection, List, Optional, Tuple

from ..trees.base import GameTree, NodeId
from .status import BooleanState


def check_count(value: object, minimum: int, message: str) -> int:
    """``value`` as an ``int`` of at least ``minimum``.

    The one check behind every width and processor-count argument, on
    every backend: a non-integer (``2.5``, ``"2"``) raises
    :class:`ValueError` instead of running as some backend's rounding
    of it; integer-like values (``numpy.int64``) pass through
    :func:`operator.index`.  ``message`` is the out-of-range error.
    """
    try:
        count = operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise ValueError(f"{message}; got non-integer {value!r}") from None
    if count < minimum:
        raise ValueError(message)
    return count


def budgeted_walk(
    tree: GameTree,
    width: int,
    settled: Collection[NodeId],
    expanded: Optional[Collection[NodeId]] = None,
) -> List[Tuple[NodeId, int]]:
    """Terminals with pruning number <= ``width``, as (node, number).

    The walk every width-w selection shares.  It descends left to right
    through nodes not in ``settled`` (determined, or finished-or-pruned
    in the pruning process); its terminals are leaves, or with
    ``expanded`` the unexpanded nodes of the node-expansion model.
    Stepping past ``c`` unsettled left-siblings at a node costs ``c``
    of the budget and branches that overdraw it are cut, so the budget
    spent on the way down *is* the terminal's exact pruning number.
    Left-to-right order.
    """
    out: List[Tuple[NodeId, int]] = []
    root = tree.root
    if root in settled:
        return out
    # Stack of (node, remaining budget); node is always unsettled.
    stack = [(root, width)]
    while stack:
        node, budget = stack.pop()
        if (
            tree.is_leaf(node) if expanded is None
            else node not in expanded
        ):
            out.append((node, width - budget))
            continue
        frames = []
        live_seen = 0
        for child in tree.children(node):
            if child in settled:
                continue  # not a live sibling, never descended
            remaining = budget - live_seen
            if remaining < 0:
                break
            frames.append((child, remaining))
            live_seen += 1
        stack.extend(reversed(frames))
    return out


def leftmost_walk(
    tree: GameTree,
    limit: float,
    settled: Collection[NodeId],
    expanded: Optional[Collection[NodeId]] = None,
) -> List[NodeId]:
    """The leftmost ``limit`` terminals not below a settled node.

    Same terminals and ``settled`` container as :func:`budgeted_walk`,
    without the budget.
    """
    out: List[NodeId] = []
    root = tree.root
    if root in settled:
        return out
    stack = [root]
    while stack and len(out) < limit:
        node = stack.pop()
        if (
            tree.is_leaf(node) if expanded is None
            else node not in expanded
        ):
            out.append(node)
            continue
        kids = [c for c in tree.children(node) if c not in settled]
        stack.extend(reversed(kids))
    return out


def select_leftmost_live(
    tree: GameTree, state: BooleanState, limit: int
) -> List[NodeId]:
    """The leftmost ``limit`` live leaves, in left-to-right order."""
    return leftmost_walk(tree, limit, state.value)


def select_by_pruning_number(
    tree: GameTree, state: BooleanState, width: int
) -> List[NodeId]:
    """All live leaves with pruning number at most ``width``.

    Returned in left-to-right order.
    """
    return [
        leaf for leaf, _pn in budgeted_walk(tree, width, state.value)
    ]


def select_with_pruning_numbers(
    tree: GameTree, state: BooleanState, width: int
) -> List[Tuple[NodeId, int]]:
    """Live leaves with pruning number <= ``width``, as (leaf, number)."""
    return budgeted_walk(tree, width, state.value)


def rank_by_urgency(scored: List[tuple], processors: int) -> List[NodeId]:
    """The ``processors`` most urgent of ``(leaf, pruning_number)`` pairs.

    Most urgent = smallest pruning number, leftmost on ties; the
    selection is returned in left-to-right tree order (``scored`` must
    already be in that order).
    """
    ranked = sorted(
        range(len(scored)), key=lambda i: (scored[i][1], i)
    )[:processors]
    return [scored[i][0] for i in sorted(ranked)]


class SequentialPolicy:
    """Sequential SOLVE: evaluate the leftmost live leaf."""

    name = "sequential-solve"

    def __call__(self, tree: GameTree, state: BooleanState) -> List[NodeId]:
        return select_leftmost_live(tree, state, 1)


class TeamPolicy:
    """Team SOLVE with p processors: the leftmost p live leaves."""

    def __init__(self, processors: int):
        self.processors = processors = check_count(
            processors, 1, "Team SOLVE needs at least one processor"
        )
        self.name = f"team-solve(p={processors})"

    def __call__(self, tree: GameTree, state: BooleanState) -> List[NodeId]:
        return select_leftmost_live(tree, state, self.processors)


class WidthPolicy:
    """Parallel SOLVE of width w: live leaves with pruning number <= w."""

    def __init__(self, width: int):
        self.width = width = check_count(width, 0, "width must be >= 0")
        self.name = f"parallel-solve(w={width})"

    def __call__(self, tree: GameTree, state: BooleanState) -> List[NodeId]:
        return select_by_pruning_number(tree, state, self.width)


class BoundedWidthPolicy:
    """Width-w selection capped at ``processors`` leaves per step.

    The practical fixed-machine variant: of the live leaves with
    pruning number <= w, evaluate the ``processors`` most urgent —
    smallest pruning number first, leftmost on ties (so the leaf
    Sequential SOLVE would take is always included, and with
    processors = 1 this *is* Sequential SOLVE for any width).
    """

    def __init__(self, width: int, processors: int):
        self.width = width = check_count(width, 0, "width must be >= 0")
        self.processors = processors = check_count(
            processors, 1, "need at least one processor"
        )
        self.name = f"parallel-solve(w={width}, p={processors})"

    def __call__(self, tree: GameTree, state: BooleanState) -> List[NodeId]:
        scored = select_with_pruning_numbers(tree, state, self.width)
        if len(scored) <= self.processors:
            return [leaf for leaf, _ in scored]
        return rank_by_urgency(scored, self.processors)


class SaturationPolicy:
    """Evaluate *every* live leaf each step (unbounded parallelism).

    The number of steps this takes is the instance's *span* — the
    depth of the evaluation dependency structure — which lower-bounds
    every parallel schedule's step count (Brent's argument); speed-up
    of any policy is capped by S(T) / span(T).
    """

    name = "saturation-solve"

    def __call__(self, tree: GameTree, state: BooleanState) -> List[NodeId]:
        return select_leftmost_live(tree, state, float("inf"))
