"""Canonical hashing and semantic equality of trees."""

import math

import pytest
from hypothesis import given, settings

from repro.trees import (
    ExplicitTree,
    LazyTree,
    UniformTree,
    canonical_encoding,
    canonical_hash,
    trees_equal,
)
from repro.trees.canonical import _encode_uniform, _encode_walk
from repro.trees.generators import iid_boolean, iid_minmax
from repro.types import Gate, TreeKind

from ..conftest import uniform_trees


def _explicit_copy(tree):
    """Rebuild any tree as an ExplicitTree with fresh ids."""
    n = tree.num_nodes()
    order = list(tree.iter_nodes())
    index = {node: i for i, node in enumerate(order)}
    children = [
        [index[c] for c in tree.children(node)] for node in order
    ]
    leaves = {
        index[node]: tree.leaf_value(node)
        for node in order
        if tree.is_leaf(node)
    }
    gates = None
    if tree.kind is TreeKind.BOOLEAN:
        gates = {
            index[node]: tree.gate(node)
            for node in order
            if not tree.is_leaf(node)
        }
    assert len(children) == n
    return ExplicitTree(children, leaves, kind=tree.kind, gates=gates)


def test_hash_is_representation_invariant():
    uniform = iid_boolean(2, 4, 0.5, seed=3)
    explicit = _explicit_copy(uniform)
    assert canonical_hash(uniform) == canonical_hash(explicit)
    assert trees_equal(uniform, explicit)


def test_hash_is_stable_across_calls():
    tree = iid_minmax(2, 3, seed=9)
    assert canonical_hash(tree) == canonical_hash(tree)
    # Pinned digest: the encoding is part of the serve cache-key
    # contract; changing it invalidates every persisted key.
    assert len(canonical_hash(tree)) == 64


def test_leaf_value_changes_hash():
    a = ExplicitTree.from_nested([[0, 1], [1, 1]])
    b = ExplicitTree.from_nested([[0, 1], [1, 0]])
    assert canonical_hash(a) != canonical_hash(b)
    assert not trees_equal(a, b)


def test_structure_changes_hash():
    a = ExplicitTree.from_nested([[0, 1], 1])
    b = ExplicitTree.from_nested([0, [1, 1]])
    assert canonical_hash(a) != canonical_hash(b)
    assert not trees_equal(a, b)


def test_gate_changes_hash():
    a = ExplicitTree.from_nested([[0, 1], [1, 1]], gates=Gate.NOR)
    b = ExplicitTree.from_nested([[0, 1], [1, 1]], gates=Gate.AND)
    assert canonical_hash(a) != canonical_hash(b)
    assert not trees_equal(a, b)


def test_kind_changes_hash():
    a = ExplicitTree.from_nested([[0, 1], [1, 1]])
    b = ExplicitTree.from_nested(
        [[0.0, 1.0], [1.0, 1.0]], kind=TreeKind.MINMAX
    )
    assert canonical_hash(a) != canonical_hash(b)
    assert not trees_equal(a, b)


def test_minmax_float_values_encoded_exactly():
    a = ExplicitTree.from_nested([0.1, 0.2], kind=TreeKind.MINMAX)
    b = ExplicitTree.from_nested(
        [0.1, 0.2 + 1e-12], kind=TreeKind.MINMAX
    )
    assert canonical_hash(a) != canonical_hash(b)


def test_lazy_tree_hashes_like_its_materialisation():
    def expand(payload, depth):
        if depth == 2:
            return ("leaf", payload % 2)
        return ("internal", [payload * 2, payload * 2 + 1])

    lazy = LazyTree(1, expand, kind=TreeKind.BOOLEAN)
    explicit = ExplicitTree.from_nested([[0, 1], [0, 1]])
    assert canonical_hash(lazy) == canonical_hash(explicit)
    assert trees_equal(lazy, explicit)


def test_single_leaf_trees():
    a = UniformTree(2, 0, [1])
    b = ExplicitTree([()], {0: 1})
    assert canonical_hash(a) == canonical_hash(b)
    assert trees_equal(a, b)


def test_encoding_is_bytes_and_prefix_tagged():
    tree = ExplicitTree.from_nested([0, 1])
    enc = canonical_encoding(tree)
    assert isinstance(enc, bytes)
    assert enc.startswith(b"boolean")


@pytest.mark.parametrize("seed", range(5))
def test_distinct_random_instances_hash_distinct(seed):
    a = iid_boolean(2, 4, 0.5, seed=seed)
    b = iid_boolean(2, 4, 0.5, seed=seed + 100)
    if trees_equal(a, b):  # pragma: no cover - astronomically unlikely
        assert canonical_hash(a) == canonical_hash(b)
    else:
        assert canonical_hash(a) != canonical_hash(b)


@settings(max_examples=80, deadline=None)
@given(uniform_trees())
def test_uniform_encoding_equals_the_walk(tree):
    expected = _encode_walk(tree)
    assert _encode_uniform(tree) == expected
    assert canonical_encoding(tree) == expected


class _MirroredUniform(UniformTree):
    """A uniform tree whose children are listed right to left."""

    def children(self, node):
        return tuple(reversed(super().children(node)))


def test_uniform_subclass_takes_the_walk():
    tree = _MirroredUniform(2, 3, list(range(8)), kind=TreeKind.MINMAX)
    assert canonical_encoding(tree) == _encode_walk(tree)
    # The shape arithmetic would describe the unmirrored tree.
    assert canonical_encoding(tree) != _encode_uniform(tree)


def test_trees_equal_compares_float_leaves_by_their_token():
    nan = ExplicitTree.from_nested([math.nan, 1.0], kind=TreeKind.MINMAX)
    assert trees_equal(nan, nan)
    pos = ExplicitTree.from_nested([0.0, 1.0], kind=TreeKind.MINMAX)
    neg = ExplicitTree.from_nested([-0.0, 1.0], kind=TreeKind.MINMAX)
    assert canonical_hash(pos) != canonical_hash(neg)
    assert not trees_equal(pos, neg)
