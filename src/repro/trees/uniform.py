"""Implicit array-backed uniform d-ary trees.

A uniform tree of branching factor ``d`` and height ``n`` — the class
``B(d, n)`` / ``M(d, n)`` of the paper — is stored without any pointer
structure: node ``i``'s children are ``d*i + 1 .. d*i + d`` (the d-ary
heap layout), and only the ``d**n`` leaf values are stored, in a NumPy
array.  This keeps instances with millions of leaves cheap and makes
i.i.d. instance generation a single vectorised draw.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..errors import TreeStructureError
from ..types import Gate, LeafValue, TreeKind
from .base import GameTree
from .gates import GateScheme, GateSpec, all_nor, coerce_scheme


class UniformTree(GameTree):
    """A complete d-ary tree of height n with array-backed leaf values.

    Parameters
    ----------
    branching:
        Branching factor ``d >= 1``.
    height:
        Height ``n >= 0`` (number of edges on every root-leaf path).
    leaf_values:
        Array of ``d**n`` values, left-to-right.  Integer dtype for
        Boolean trees, float for MIN/MAX trees.
    kind:
        Boolean or MIN/MAX semantics.
    gates:
        Gate scheme for Boolean trees (default: all NOR).
    """

    def __init__(
        self,
        branching: int,
        height: int,
        leaf_values: Union[np.ndarray, list],
        kind: TreeKind = TreeKind.BOOLEAN,
        gates: Optional[GateSpec] = None,
    ):
        if branching < 1:
            raise TreeStructureError("branching factor must be >= 1")
        if height < 0:
            raise TreeStructureError("height must be >= 0")
        self.kind = kind
        self.branching = branching
        self._height = height
        values = np.asarray(leaf_values)
        expected = branching ** height
        if values.shape != (expected,):
            raise TreeStructureError(
                f"need {expected} leaf values for B({branching},{height}), "
                f"got shape {values.shape}"
            )
        if kind is TreeKind.BOOLEAN:
            if not np.all((values == 0) | (values == 1)):
                raise TreeStructureError("Boolean leaves must be 0/1")
            values = values.astype(np.int8)
        else:
            values = values.astype(np.float64)
        self.leaf_values_array = values
        # _offset[L] = index of the first node at level L.
        self._offset = [0] * (height + 2)
        for level in range(1, height + 2):
            self._offset[level] = (
                self._offset[level - 1] * branching + 1
            )
        # The formula above gives offset[L] = (d^L - 1) / (d - 1) for
        # d >= 2 and offset[L] = L for d == 1.
        self._first_leaf = self._offset[height]
        self._num_nodes = self._offset[height + 1]
        self._scheme: GateScheme = (
            coerce_scheme(gates) if gates is not None else all_nor()
        )

    # -- structure -----------------------------------------------------
    @property
    def root(self) -> int:
        return 0

    def children(self, node: int) -> Tuple[int, ...]:
        if node >= self._first_leaf:
            return ()
        base = node * self.branching + 1
        return tuple(range(base, base + self.branching))

    def is_leaf(self, node: int) -> bool:
        return node >= self._first_leaf

    def leaf_value(self, node: int) -> LeafValue:
        idx = node - self._first_leaf
        if idx < 0 or node >= self._num_nodes:
            raise TreeStructureError(f"{node} is not a leaf")
        value = self.leaf_values_array[idx]
        return float(value) if self.kind is TreeKind.MINMAX else int(value)

    def depth(self, node: int) -> int:
        # binary search over the level offsets (height+2 entries).
        lo, hi = 0, self._height
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._offset[mid] <= node:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def parent(self, node: int) -> Optional[int]:
        if node == 0:
            return None
        return (node - 1) // self.branching

    def gate(self, node: int) -> Gate:
        if self.kind is not TreeKind.BOOLEAN:
            raise TreeStructureError("MIN/MAX trees have no gates")
        # Single-gate schemes (the common NOR case) skip the O(log n)
        # depth lookup — gate() sits on the propagation hot path.
        cycle = self._scheme.cycle
        if len(cycle) == 1:
            return cycle[0]
        return self._scheme.gate_at(self.depth(node))

    def arity(self, node: int) -> int:
        return 0 if node >= self._first_leaf else self.branching

    # -- fast paths (avoid generic traversal) ---------------------------
    def height(self) -> int:
        return self._height

    def num_nodes(self) -> int:
        return self._num_nodes

    def num_leaves(self) -> int:
        return len(self.leaf_values_array)

    def first_leaf_id(self) -> int:
        """Node id of the leftmost leaf."""
        return self._first_leaf

    def level_offset(self, level: int) -> int:
        """Node id of the leftmost node at depth ``level``.

        Ids are heap-numbered level by level, so this is also the number
        of nodes above ``level``; ``level_offset(height() + 1)`` is
        :meth:`num_nodes`.  Valid for ``0 <= level <= height() + 1``.
        """
        return self._offset[level]

    def leaf_index(self, node: int) -> int:
        """Position of leaf ``node`` in left-to-right leaf order."""
        return node - self._first_leaf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UniformTree(d={self.branching}, n={self._height}, "
            f"kind={self.kind.value})"
        )
