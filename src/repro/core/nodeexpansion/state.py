"""State for the node-expansion model (Section 5), Boolean trees.

The algorithm sees only ``T*`` — the nodes generated so far.  Expanding
a node either evaluates it (if it is a leaf) or produces its children.
Determination in ``T*`` follows the gate rules restricted to generated
information: an internal node can only be determined "otherwise" once
it has been expanded and *all* its children are determined
non-absorbing.

A *frontier node* is a live (no determined ancestor) node that has not
been expanded; these are the units a policy may select.
"""

from __future__ import annotations

from typing import Set

from ...errors import ModelViolationError
from ...trees.base import GameTree, NodeId
from ..status import BooleanState


class ExpansionState(BooleanState):
    """Incremental T* state over a Boolean tree.

    The underlying ``tree`` may be a :class:`~repro.trees.LazyTree`
    (the honest node-expansion setting — structure is generated by this
    state's ``expand`` calls) or any materialised tree (useful for
    analyses, where ``T*`` is then just a bookkeeping overlay).

    Determination, liveness and pruning numbers are the
    :class:`~repro.core.status.BooleanState` ones; this class adds only
    the expanded set and the expansion operation.
    """

    def __init__(self, tree: GameTree):
        super().__init__(tree)
        #: nodes on which the expansion operation has been applied.
        self.expanded: Set[NodeId] = set()

    # -- queries ----------------------------------------------------------
    def is_expanded(self, node: NodeId) -> bool:
        return node in self.expanded

    def is_frontier(self, node: NodeId) -> bool:
        """Live and unexpanded (assumes ``node`` has been generated)."""
        return node not in self.expanded and self.is_live(node)

    # -- updates -----------------------------------------------------------
    def expand(self, node: NodeId) -> None:
        """Apply the node-expansion operation to ``node``."""
        if node in self.expanded:
            raise ModelViolationError(f"node {node!r} expanded twice")
        self.expanded.add(node)
        # For a LazyTree these calls are what actually generates the
        # children / evaluates the leaf.
        if self.tree.is_leaf(node):
            self._determine(node, int(self.tree.leaf_value(node)))
        # Internal nodes: children are now generated; nothing to
        # determine until they report values.
