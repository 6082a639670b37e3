"""CanonicalArrays: preorder lowering invariants and round-trips."""

import dataclasses

import numpy as np
import pytest

from repro.trees import (
    CanonicalArrays,
    UniformTree,
    alternating,
    canonical_arrays,
    trees_equal,
)
from repro.trees.canonical import _lower_walk
from repro.trees.explicit import ExplicitTree
from repro.trees.generators import iid_boolean, iid_minmax
from repro.trees.io import tree_to_dict
from repro.types import Gate, TreeKind


def _check_invariants(arrays: CanonicalArrays) -> None:
    n = arrays.n_nodes
    assert arrays.parents[0] == -1
    assert arrays.depths[0] == 0
    assert int(arrays.spans[0]) == n
    # Subtrees are contiguous preorder ranges: every node lies inside
    # its parent's range, strictly after the parent.
    for i in range(1, n):
        p = int(arrays.parents[i])
        assert p < i <= p + int(arrays.spans[p]) - 1
        assert arrays.depths[i] == arrays.depths[p] + 1
    # Arities match the span-walk children; child_pos is the rank.
    for i in range(n):
        kids = arrays.children_of(i)
        assert len(kids) == int(arrays.arities[i])
        for pos, k in enumerate(kids):
            assert int(arrays.child_pos[k]) == pos
    # Levels partition the nodes; same-parent runs are contiguous
    # within each sorted level (the vectorised sweeps rely on this).
    assert sum(len(lv) for lv in arrays.levels) == n
    for lv in arrays.levels[1:]:
        parents = arrays.parents[lv]
        seen = set()
        previous = None
        for p in parents.tolist():
            if p != previous:
                assert p not in seen
                seen.add(p)
                previous = p
    # child_start names each internal node's children as one slice of
    # the next level; leaves carry -1.
    for v in range(n):
        start, arity = int(arrays.child_start[v]), int(arrays.arities[v])
        if arity == 0:
            assert start == -1
            continue
        below = arrays.levels[int(arrays.depths[v]) + 1]
        assert below[start:start + arity].tolist() == arrays.children_of(v)


@pytest.mark.parametrize("branching,height", [(2, 3), (3, 4), (2, 6)])
def test_boolean_roundtrip(branching, height):
    tree = iid_boolean(branching, height, 0.5, seed=7)
    arrays = canonical_arrays(tree)
    _check_invariants(arrays)
    assert arrays.kind is TreeKind.BOOLEAN
    rebuilt = arrays.to_explicit()
    assert trees_equal(tree, rebuilt)
    # The serialised forms agree wherever ids allow: a dense rebuild of
    # an explicit original is the identical dict.
    explicit = arrays.to_explicit()
    again = canonical_arrays(explicit)
    assert tree_to_dict(again.to_explicit()) == tree_to_dict(explicit)


@pytest.mark.parametrize("branching,height", [(2, 3), (3, 5)])
def test_minmax_roundtrip(branching, height):
    tree = iid_minmax(branching, height, seed=11)
    arrays = canonical_arrays(tree)
    _check_invariants(arrays)
    assert arrays.kind is TreeKind.MINMAX
    assert arrays.gate_absorbing is None
    assert trees_equal(tree, arrays.to_explicit())


def test_explicit_dict_roundtrip_is_exact():
    tree = ExplicitTree.from_nested(
        [[1, 0, [1, 1]], [0, [0, 1], 1], 1],
        gates=Gate.NAND,
    )
    arrays = canonical_arrays(tree)
    _check_invariants(arrays)
    # ExplicitTree.from_nested numbers nodes in preorder already, so
    # the rebuild reproduces tree_to_dict exactly, ids included.
    assert tree_to_dict(arrays.to_explicit()) == tree_to_dict(tree)


def test_mixed_gates_survive_lowering():
    tree = ExplicitTree(
        children=[[1, 2], [3, 4], [], [], []],
        leaf_values={2: 1, 3: 0, 4: 1},
        kind=TreeKind.BOOLEAN,
        gates={0: Gate.NOR, 1: Gate.AND},
    )
    arrays = canonical_arrays(tree)
    rebuilt = arrays.to_explicit()
    assert rebuilt.gate(0) is Gate.NOR
    assert rebuilt.gate(1) is Gate.AND
    assert trees_equal(tree, rebuilt)


def test_single_leaf_tree():
    tree = ExplicitTree([[]], {0: 1}, kind=TreeKind.BOOLEAN, gates=None)
    arrays = canonical_arrays(tree)
    assert arrays.n_nodes == 1
    assert arrays.height == 0
    assert bool(arrays.is_leaf[0])
    assert arrays.children_of(0) == []
    assert trees_equal(tree, arrays.to_explicit())


def test_lowering_is_memoized_per_tree_object():
    tree = iid_boolean(2, 4, 0.5, seed=3)
    assert canonical_arrays(tree) is canonical_arrays(tree)


def test_index_map_inverts_node_ids():
    tree = iid_minmax(3, 3, seed=5)
    arrays = canonical_arrays(tree)
    index = arrays.index_map()
    assert len(index) == arrays.n_nodes
    for i, node in enumerate(arrays.node_ids.tolist()):
        assert index[node] == i
    assert arrays.index_map() is index  # cached


def test_leaf_values_nan_at_internal_nodes():
    tree = iid_minmax(2, 3, seed=1)
    arrays = canonical_arrays(tree)
    assert np.isnan(arrays.values[~arrays.is_leaf]).all()
    assert not np.isnan(arrays.values[arrays.is_leaf]).any()


# ---------------------------------------------------------------------------
# the index-arithmetic lowering of UniformTree against the generic walk
# ---------------------------------------------------------------------------
def _uniform_cases():
    rng = np.random.default_rng(2024)
    for d in range(1, 6):
        for n in range(0, 7):
            leaves = d ** n
            yield pytest.param(
                UniformTree(d, n, rng.normal(size=leaves),
                            kind=TreeKind.MINMAX),
                id=f"d{d}n{n}-minmax",
            )
            bits = rng.integers(0, 2, size=leaves)
            yield pytest.param(
                UniformTree(d, n, bits, kind=TreeKind.BOOLEAN),
                id=f"d{d}n{n}-nor",
            )
            yield pytest.param(
                UniformTree(d, n, bits, kind=TreeKind.BOOLEAN,
                            gates=alternating(Gate.AND)),
                id=f"d{d}n{n}-and-or",
            )


def _assert_columns_equal(fast: CanonicalArrays, walk: CanonicalArrays):
    for f in dataclasses.fields(CanonicalArrays):
        if not f.compare:
            continue
        a, b = getattr(fast, f.name), getattr(walk, f.name)
        if f.name == "kind":
            assert a is b
        elif f.name == "levels":
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.dtype == y.dtype
                assert np.array_equal(x, y)
        elif b is None:
            assert a is None, f.name
        else:
            assert a.dtype == b.dtype, f.name
            assert a.shape == b.shape, f.name
            assert np.array_equal(a, b, equal_nan=True), f.name


@pytest.mark.parametrize("tree", list(_uniform_cases()))
def test_uniform_lowering_matches_walk(tree):
    fast = canonical_arrays(tree)
    walk = _lower_walk(tree)
    _assert_columns_equal(fast, walk)
    assert fast.node_ids.dtype == np.int64
    assert fast.values.dtype == np.float64
    assert np.isnan(fast.values[~fast.is_leaf]).all()
    if tree.kind is TreeKind.BOOLEAN:
        for column in (
            fast.gate_absorbing, fast.gate_on_absorb, fast.gate_otherwise
        ):
            assert column is not None and column.dtype == np.int8
    else:
        assert fast.gate_absorbing is None
    _check_invariants(fast)
