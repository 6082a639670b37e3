"""Shared evaluation state for Boolean (gate) trees.

The state tracks, per node, whether its value is *determined* — i.e.
computable from the leaves evaluated so far (Section 2).  Determination
propagates upward incrementally:

* a child taking its parent gate's absorbing value determines the
  parent immediately;
* the last child determined non-absorbing determines the parent to the
  gate's "otherwise" output (tracked with a per-node undetermined-child
  counter, initialised lazily).

A node is *dead* when any ancestor (itself included) is determined,
*live* otherwise.  Selection policies only ever descend through
undetermined nodes, so deadness never needs to be stored.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional, Set

from ..errors import ModelViolationError
from ..trees.base import GameTree, NodeId


class BooleanState:
    """Incremental determination state over a Boolean tree."""

    #: expanded nodes; ``None`` in the leaf model, whose terminals are
    #: leaves (the node-expansion state sets it).
    expanded: Optional[Collection[NodeId]] = None

    def __init__(self, tree: GameTree):
        self.tree = tree
        #: determined node values (absence means undetermined).
        self.value: Dict[NodeId, int] = {}
        #: leaves that have been evaluated.
        self.evaluated: Set[NodeId] = set()
        self._undetermined_children: Dict[NodeId, int] = {}

    @property
    def settled(self) -> Dict[NodeId, int]:
        """The determined nodes (``value``): the selection walks' cut."""
        return self.value

    # -- queries ----------------------------------------------------------
    def is_determined(self, node: NodeId) -> bool:
        return node in self.value

    def is_live(self, node: NodeId) -> bool:
        """No ancestor of ``node`` (itself included) is determined."""
        for anc in self.tree.ancestors(node):
            if anc in self.value:
                return False
        return True

    def root_value(self) -> Optional[int]:
        return self.value.get(self.tree.root)

    def pruning_number(self, leaf: NodeId) -> int:
        """Number of live left-siblings of the ancestors of ``leaf``.

        Only meaningful for live leaves (the paper defines it for them);
        this direct implementation is O(height * branching) and is used
        for cross-checking the budgeted-DFS selection.
        """
        count = 0
        for anc in self.tree.ancestors(leaf):
            for sib in self.tree.left_siblings(anc):
                # Siblings share all strict ancestors with ``anc``,
                # which are undetermined because ``leaf`` is live, so a
                # sibling is live iff its own value is undetermined.
                if sib not in self.value:
                    count += 1
        return count

    # -- updates -----------------------------------------------------------
    def evaluate_leaf(self, leaf: NodeId) -> int:
        """Evaluate ``leaf`` and propagate determinations upward."""
        self._claim(leaf)
        val = int(self.tree.leaf_value(leaf))
        self._determine(leaf, val)
        return val

    def settle_leaf(self, leaf: NodeId, value: int) -> int:
        """:meth:`evaluate_leaf` with ``value`` supplied by the caller
        (an external leaf oracle) instead of read from the tree."""
        self._claim(leaf)
        val = int(value)
        self._determine(leaf, val)
        return val

    def _claim(self, leaf: NodeId) -> None:
        """Mark ``leaf`` evaluated; reject repeats and non-leaves."""
        if leaf in self.evaluated:
            raise ModelViolationError(f"leaf {leaf!r} evaluated twice")
        if not self.tree.is_leaf(leaf):
            raise ModelViolationError(f"{leaf!r} is not a leaf")
        self.evaluated.add(leaf)

    def _determine(self, node: NodeId, val: int) -> None:
        """Record ``node``'s value and cascade to ancestors."""
        tree = self.tree
        while node is not None and node not in self.value:
            self.value[node] = val
            parent = tree.parent(node)
            if parent is None or parent in self.value:
                break
            gate = tree.gate(parent)
            if val == gate.absorbing:
                node, val = parent, gate.on_absorb
                continue
            remaining = self._undetermined_children.get(parent)
            if remaining is None:
                remaining = tree.arity(parent)
            remaining -= 1
            self._undetermined_children[parent] = remaining
            if remaining == 0:
                node, val = parent, gate.otherwise
                continue
            break
