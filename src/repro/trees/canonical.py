"""Canonical forms for game trees: stable hashing and equality.

Two trees are *semantically equal* when they have the same shape, the
same evaluation semantics (kind and, for Boolean trees, per-node
gates) and the same leaf values in the same left-to-right order.  The
node identifiers themselves are representation detail — a
:class:`~repro.trees.uniform.UniformTree` and an
:class:`~repro.trees.explicit.ExplicitTree` of the same instance are
equal, and hash equal, under the functions here.

:func:`canonical_encoding` walks a tree in preorder through the
abstract :class:`~repro.trees.base.GameTree` interface only and emits
a deterministic byte string; :func:`canonical_hash` is its SHA-256
digest, the content address the ``repro.serve`` result cache keys on.
Float leaf values are encoded via ``repr``, which round-trips IEEE-754
doubles exactly, so value-distinct trees get distinct encodings.

Lazy trees are materialised by the walk (every reachable node is
expanded), exactly as :meth:`GameTree.iter_nodes` would.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..types import Gate, LeafValue, TreeKind
from .base import GameTree, NodeId
from .uniform import UniformTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .explicit import ExplicitTree

__all__ = [
    "CanonicalArrays",
    "canonical_arrays",
    "canonical_encoding",
    "canonical_hash",
    "trees_equal",
]


def _leaf_token(tree: GameTree, node: NodeId) -> str:
    value = tree.leaf_value(node)
    if tree.kind is TreeKind.BOOLEAN:
        return str(int(value))
    return repr(float(value))


def canonical_encoding(tree: GameTree) -> bytes:
    """Deterministic byte encoding of a tree's semantic content.

    Preorder traversal; each internal node contributes its arity (and
    gate name for Boolean trees), each leaf its value.  Identifiers
    never appear, so the encoding is representation-invariant.
    """
    parts: List[str] = [tree.kind.value]
    stack: List[NodeId] = [tree.root]
    while stack:
        node = stack.pop()
        if tree.is_leaf(node):
            parts.append(f"L{_leaf_token(tree, node)}")
        else:
            kids = tree.children(node)
            if tree.kind is TreeKind.BOOLEAN:
                parts.append(f"N{len(kids)}:{tree.gate(node).name}")
            else:
                parts.append(f"N{len(kids)}")
            stack.extend(reversed(kids))
    return "|".join(parts).encode("utf-8")


#: instance-attribute memo slot; trees are immutable once built, so a
#: computed digest stays valid for the object's lifetime.
_HASH_ATTR = "_repro_canonical_hash"


def canonical_hash(tree: GameTree) -> str:
    """SHA-256 hex digest of :func:`canonical_encoding`.

    Stable across processes and Python versions (no ``hash()``
    involvement, so ``PYTHONHASHSEED`` is irrelevant) — the property
    the sharded serving layer relies on to route equal requests to
    the same shard and cache slot.

    The digest is memoised on the tree instance (an O(n) walk per
    *object*, not per call): a serving stream hits the same pool trees
    thousands of times, and re-hashing them would dominate the
    warm-cache path.
    """
    cached = getattr(tree, _HASH_ATTR, None)
    if cached is not None:
        return str(cached)
    digest = hashlib.sha256(canonical_encoding(tree)).hexdigest()
    # Slotted/frozen tree types reject the memo attribute; the digest
    # is simply recomputed on demand for them.
    try:
        setattr(tree, _HASH_ATTR, digest)
    except AttributeError:  # lint: disable=R6
        pass
    return digest


#: Reverse lookup from a gate's semantic triple back to the enum
#: member; the four gates have pairwise-distinct triples.
_TRIPLE_TO_GATE: Dict[Tuple[int, int, int], Gate] = {
    (g.absorbing, g.on_absorb, g.otherwise): g for g in Gate
}


@dataclass
class CanonicalArrays:
    """The preorder encoding of a tree as struct-of-arrays columns.

    This is the same left-to-right preorder :func:`canonical_encoding`
    walks, materialised once as numpy columns indexed by preorder
    position ``0 .. n_nodes-1`` (root at 0).  The subtree of node ``i``
    occupies the contiguous index range ``[i, i + spans[i])``, so the
    next preorder sibling of ``i`` is ``i + spans[i]`` and the children
    of ``i`` are exactly the depth-``depths[i]+1`` nodes inside that
    range.  ``repro.core.arena`` lowers trees through this dataclass
    and never touches the object graph again.

    A second preorder fact makes children addressable without any
    search: the children of a node are *contiguous* in the next
    level's array (siblings are separated in preorder only by their
    own, deeper, subtrees), so ``child_start`` plus ``arities`` names
    them as one slice of ``levels[depths[i] + 1]``.

    Instances are immutable by convention: the arena engines read the
    columns but never write them (all mutable run state lives in the
    engine's own arrays).
    """

    kind: TreeKind
    #: Original node identifiers in preorder (``int64`` when every id
    #: is a Python int — the dense-tree fast path — else ``object``).
    node_ids: np.ndarray
    #: Preorder index of each node's parent; -1 at the root.
    parents: np.ndarray
    #: Subtree size including the node itself (1 at leaves).
    spans: np.ndarray
    depths: np.ndarray
    #: Number of children (0 at leaves).
    arities: np.ndarray
    #: Index among the parent's children (0 at the root).
    child_pos: np.ndarray
    is_leaf: np.ndarray
    #: Leaf values as float64 (0/1 for Boolean trees); NaN at internal
    #: nodes.
    values: np.ndarray
    #: Per-node gate semantics for Boolean trees (``int8``, -1 at
    #: leaves); ``None`` for MIN/MAX trees.
    gate_absorbing: Optional[np.ndarray]
    gate_on_absorb: Optional[np.ndarray]
    gate_otherwise: Optional[np.ndarray]
    #: ``levels[d]`` is the sorted preorder-index array of depth-``d``
    #: nodes; within a level, nodes sharing a parent form contiguous
    #: runs (a preorder invariant the vectorised sweeps rely on).
    levels: Tuple[np.ndarray, ...]
    #: Position of each internal node's first child in the next
    #: level's array: the children of ``i`` are
    #: ``levels[depths[i] + 1][child_start[i] : child_start[i] +
    #: arities[i]]``, left to right.  -1 at leaves.
    child_start: np.ndarray

    _index: Optional[Dict[NodeId, int]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_nodes(self) -> int:
        return int(self.parents.shape[0])

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    def index_map(self) -> Dict[NodeId, int]:
        """``NodeId -> preorder index`` (built lazily, then cached)."""
        if self._index is None:
            self._index = {
                node: i for i, node in enumerate(self.node_ids.tolist())
            }
        return self._index

    def children_of(self, i: int) -> List[int]:
        """Preorder indices of node ``i``'s children, left to right."""
        kids: List[int] = []
        j = i + 1
        end = i + int(self.spans[i])
        while j < end:
            kids.append(j)
            j += int(self.spans[j])
        return kids

    def to_explicit(self) -> "ExplicitTree":
        """Rebuild an explicit tree over dense preorder ids.

        Semantically equal to the lowered tree (same shape, gates and
        leaf values); the round-trip tests pin this against
        ``tree_to_dict`` of the original.
        """
        from .explicit import ExplicitTree

        n = self.n_nodes
        children = [self.children_of(i) for i in range(n)]
        leaf_values: Dict[int, LeafValue] = {}
        for i in np.flatnonzero(self.is_leaf).tolist():
            raw = float(self.values[i])
            leaf_values[i] = (
                int(raw) if self.kind is TreeKind.BOOLEAN else raw
            )
        gates: Optional[Dict[int, Gate]] = None
        if self.kind is TreeKind.BOOLEAN:
            assert self.gate_absorbing is not None
            assert self.gate_on_absorb is not None
            assert self.gate_otherwise is not None
            gates = {
                i: _TRIPLE_TO_GATE[
                    (
                        int(self.gate_absorbing[i]),
                        int(self.gate_on_absorb[i]),
                        int(self.gate_otherwise[i]),
                    )
                ]
                for i in range(n)
                if not self.is_leaf[i]
            }
        return ExplicitTree(
            children, leaf_values, kind=self.kind, gates=gates
        )


#: instance-attribute memo slot for the lowered arrays (same contract
#: as ``_HASH_ATTR``: trees are immutable once built).
_ARRAYS_ATTR = "_repro_canonical_arrays"


def canonical_arrays(tree: GameTree) -> CanonicalArrays:
    """Lower a tree to its :class:`CanonicalArrays` preorder columns.

    A :class:`~repro.trees.uniform.UniformTree` lowers by index
    arithmetic over its levels; every other tree by one O(n)
    object-graph walk.  The result is memoised per tree *object* (like
    :func:`canonical_hash`); every subsequent arena run reuses the
    columns without touching the tree again.
    """
    cached = getattr(tree, _ARRAYS_ATTR, None)
    if isinstance(cached, CanonicalArrays):
        return cached
    # Exact type, not isinstance: a subclass may reshape the tree the
    # index arithmetic describes.
    if type(tree) is UniformTree:
        arrays = _lower_uniform(tree)
    else:
        arrays = _lower_walk(tree)
    # Slotted/frozen tree types reject the memo attribute; the arrays
    # are simply recomputed on demand for them.
    try:
        setattr(tree, _ARRAYS_ATTR, arrays)
    except AttributeError:  # lint: disable=R6
        pass
    return arrays


def _lower_walk(tree: GameTree) -> CanonicalArrays:
    """The generic lowering: one preorder walk of the object graph.

    Accepts any tree, and is the reference the uniform lowering is
    tested against.
    """
    boolean = tree.kind is TreeKind.BOOLEAN
    ids: List[NodeId] = []
    parents: List[int] = []
    depths: List[int] = []
    child_pos: List[int] = []
    arities: List[int] = []
    values: List[float] = []
    gate_abs: List[int] = []
    gate_on: List[int] = []
    gate_other: List[int] = []

    # Preorder via LIFO with reversed pushes — identical visit order to
    # canonical_encoding.
    stack: List[Tuple[NodeId, int, int, int]] = [(tree.root, -1, 0, 0)]
    while stack:
        node, parent_idx, depth, pos = stack.pop()
        idx = len(ids)
        ids.append(node)
        parents.append(parent_idx)
        depths.append(depth)
        child_pos.append(pos)
        if tree.is_leaf(node):
            arities.append(0)
            values.append(float(tree.leaf_value(node)))
            if boolean:
                gate_abs.append(-1)
                gate_on.append(-1)
                gate_other.append(-1)
        else:
            kids = tree.children(node)
            arities.append(len(kids))
            values.append(float("nan"))
            if boolean:
                gate = tree.gate(node)
                gate_abs.append(gate.absorbing)
                gate_on.append(gate.on_absorb)
                gate_other.append(gate.otherwise)
            for k_pos, kid in reversed(list(enumerate(kids))):
                stack.append((kid, idx, depth + 1, k_pos))

    n = len(ids)
    parents_a = np.asarray(parents, dtype=np.int64)
    depths_a = np.asarray(depths, dtype=np.int64)
    arities_a = np.asarray(arities, dtype=np.int64)
    child_pos_a = np.asarray(child_pos, dtype=np.int64)
    is_leaf_a = arities_a == 0
    values_a = np.asarray(values, dtype=np.float64)
    if all(type(x) is int for x in ids):
        node_ids_a = np.asarray(ids, dtype=np.int64)
    else:
        node_ids_a = np.empty(n, dtype=object)
        for i, node in enumerate(ids):
            node_ids_a[i] = node

    height = int(depths_a.max()) if n else 0
    levels = tuple(
        np.flatnonzero(depths_a == d) for d in range(height + 1)
    )

    # Subtree spans by one bottom-up pass: each node contributes its
    # (already summed) span to its parent, deepest level first.  The
    # same pass finds each parent's first child (child_pos 0) in the
    # level below.
    spans_a = np.ones(n, dtype=np.int64)
    child_start_a = np.full(n, -1, dtype=np.int64)
    for d in range(height, 0, -1):
        level = levels[d]
        np.add.at(spans_a, parents_a[level], spans_a[level])
        first = np.flatnonzero(child_pos_a[level] == 0)
        child_start_a[parents_a[level[first]]] = first

    return CanonicalArrays(
        kind=tree.kind,
        node_ids=node_ids_a,
        parents=parents_a,
        spans=spans_a,
        depths=depths_a,
        arities=arities_a,
        child_pos=child_pos_a,
        is_leaf=is_leaf_a,
        values=values_a,
        gate_absorbing=(
            np.asarray(gate_abs, dtype=np.int8) if boolean else None
        ),
        gate_on_absorb=(
            np.asarray(gate_on, dtype=np.int8) if boolean else None
        ),
        gate_otherwise=(
            np.asarray(gate_other, dtype=np.int8) if boolean else None
        ),
        levels=levels,
        child_start=child_start_a,
    )


def _lower_uniform(tree: UniformTree) -> CanonicalArrays:
    """Lower a complete d-ary tree by index arithmetic, level by level.

    The heap layout is the tree's own: the leftmost node at depth ``k``
    has id ``tree.level_offset(k)``, ids run left to right along a
    level, and every depth-``k`` subtree holds
    ``S[k] = tree.level_offset(height - k + 1)`` nodes.  The preorder
    indices of a node's children are therefore ``pre + 1 + j * S[k+1]``
    for ``j < d``.  Expanding a whole level at once yields the next
    level already sorted, and the heap ids, parents, child ranks and
    gates of a level are all closed-form.  Columns equal
    :func:`_lower_walk`'s exactly.
    """
    d, height = tree.branching, tree.height()
    sizes = [tree.level_offset(height - k + 1) for k in range(height + 1)]
    n = sizes[0]
    ranks = np.arange(d, dtype=np.int64)
    levels = [np.zeros(1, dtype=np.int64)]
    for k in range(height):
        levels.append(
            (levels[k][:, None] + 1 + ranks * sizes[k + 1]).ravel()
        )

    node_ids = np.empty(n, dtype=np.int64)
    parents = np.empty(n, dtype=np.int64)
    spans = np.empty(n, dtype=np.int64)
    depths = np.empty(n, dtype=np.int64)
    arities = np.zeros(n, dtype=np.int64)
    child_pos = np.empty(n, dtype=np.int64)
    child_start = np.full(n, -1, dtype=np.int64)
    parents[0] = -1
    child_pos[0] = 0
    for k, level in enumerate(levels):
        count = level.shape[0]
        first_id = tree.level_offset(k)
        node_ids[level] = np.arange(first_id, first_id + count)
        spans[level] = sizes[k]
        depths[level] = k
        if k < height:
            below = levels[k + 1]
            arities[level] = d
            child_start[level] = np.arange(0, count * d, d)
            parents[below] = np.repeat(level, d)
            child_pos[below] = np.tile(ranks, count)

    values = np.full(n, np.nan)
    values[levels[height]] = tree.leaf_values_array
    gate_abs: Optional[np.ndarray] = None
    gate_on: Optional[np.ndarray] = None
    gate_other: Optional[np.ndarray] = None
    if tree.kind is TreeKind.BOOLEAN:
        gate_abs = np.full(n, -1, dtype=np.int8)
        gate_on = np.full(n, -1, dtype=np.int8)
        gate_other = np.full(n, -1, dtype=np.int8)
        for k in range(height):
            gate = tree.gate(int(node_ids[levels[k][0]]))
            gate_abs[levels[k]] = gate.absorbing
            gate_on[levels[k]] = gate.on_absorb
            gate_other[levels[k]] = gate.otherwise

    return CanonicalArrays(
        kind=tree.kind,
        node_ids=node_ids,
        parents=parents,
        spans=spans,
        depths=depths,
        arities=arities,
        child_pos=child_pos,
        is_leaf=arities == 0,
        values=values,
        gate_absorbing=gate_abs,
        gate_on_absorb=gate_on,
        gate_otherwise=gate_other,
        levels=tuple(levels),
        child_start=child_start,
    )


def trees_equal(a: GameTree, b: GameTree) -> bool:
    """Structural/semantic equality (see module docstring).

    Walks both trees in lockstep; cheap early exits on kind, arity and
    leaf-value mismatches.  Used by the collision property tests to
    certify that hash-equal trees really are the same instance.
    """
    if a.kind is not b.kind:
        return False
    stack: List[tuple] = [(a.root, b.root)]
    while stack:
        na, nb = stack.pop()
        leaf_a, leaf_b = a.is_leaf(na), b.is_leaf(nb)
        if leaf_a != leaf_b:
            return False
        if leaf_a:
            va, vb = a.leaf_value(na), b.leaf_value(nb)
            if a.kind is TreeKind.BOOLEAN:
                if int(va) != int(vb):
                    return False
            elif float(va) != float(vb):
                return False
            continue
        kids_a, kids_b = a.children(na), b.children(nb)
        if len(kids_a) != len(kids_b):
            return False
        if a.kind is TreeKind.BOOLEAN and a.gate(na) is not b.gate(nb):
            return False
        stack.extend(zip(kids_a, kids_b))
    return True
