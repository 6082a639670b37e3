"""Selection policies: the two rules every object-graph engine runs.

A policy maps the current state to the batch of live terminals to
process at the next basic step.  The paper has two selection rules:

* :class:`LeftmostPolicy` — the leftmost ``limit`` live terminals
  (Sequential SOLVE and N-Sequential SOLVE with limit 1, Team SOLVE
  with limit p, saturation with no limit);
* :class:`WidthPolicy` — all live terminals with pruning number at
  most ``w`` (Parallel SOLVE, Parallel alpha-beta and their
  node-expansion versions; width 0 coincides with the sequential
  algorithm), optionally capped at the ``max_processors`` most urgent.

Each rule is one left-to-right DFS that descends only through
unsettled nodes.  :func:`budgeted_walk` carries a *budget*: stepping
past ``c`` live left-siblings at a node costs ``c``, and branches whose
cumulative cost exceeds the width are cut — this enumerates exactly the
live terminals with pruning number <= w, touching only their ancestors.

Both policies work on all four models because every state exposes the
two containers the walks read: ``settled`` (determined nodes, or
finished-or-pruned ones in the pruning process) and ``expanded``
(``None`` in the leaf-evaluation model, where the terminals are leaves;
the expanded set in the node-expansion model, where they are the
unexpanded nodes).
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Collection, List, Optional, Tuple, Union

from ..trees.base import GameTree, NodeId
from .status import BooleanState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .alphabeta.state import AlphaBetaState

#: Any state a policy selects from; the node-expansion states subclass
#: these two.
State = Union[BooleanState, "AlphaBetaState"]


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


class LeftmostPolicy:
    """The leftmost ``limit`` live terminals, in left-to-right order.

    Sequential SOLVE and N-Sequential SOLVE take ``limit=1``, Team
    SOLVE with p processors ``limit=p``.  With no limit every live leaf
    is taken each step (saturation): the step count is then the
    instance's *span*, which lower-bounds every parallel schedule
    (Brent's argument), so any policy's speed-up is capped by
    S(T) / span(T).
    """

    def __init__(self, limit: Optional[int] = None):
        if limit is None:
            self.limit: float = math.inf
            self.name = "leftmost"
        else:
            # Team SOLVE's processor count is the one limit a caller
            # supplies, so its range message is the one raised.
            self.limit = limit = check_count(
                limit, 1, "Team SOLVE needs at least one processor"
            )
            self.name = f"leftmost({limit})"

    def __call__(self, tree: GameTree, state: State) -> List[NodeId]:
        return leftmost_walk(tree, self.limit, state.settled, state.expanded)


class WidthPolicy:
    """Live terminals with pruning number <= ``width``, left to right.

    Parallel SOLVE, Parallel alpha-beta and their node-expansion
    versions of width w (width 0 is the sequential algorithm).  With
    ``max_processors`` it is the fixed machine: of those terminals,
    the ``max_processors`` most urgent (:func:`rank_by_urgency`), so
    the one Sequential SOLVE would take is always included and one
    processor *is* Sequential SOLVE for any width.
    """

    def __init__(self, width: int, max_processors: Optional[int] = None):
        self.width = width = check_count(width, 0, "width must be >= 0")
        if max_processors is None:
            self.name = f"width({width})"
        else:
            max_processors = check_count(
                max_processors, 1, "need at least one processor"
            )
            self.name = f"width({width}, p={max_processors})"
        self.max_processors = max_processors

    def __call__(self, tree: GameTree, state: State) -> List[NodeId]:
        scored = budgeted_walk(tree, self.width, state.settled, state.expanded)
        cap = self.max_processors
        if cap is not None and len(scored) > cap:
            return rank_by_urgency(scored, cap)
        return [node for node, _pn in scored]
