"""Unit tests for the implicit array-backed UniformTree."""

import numpy as np
import pytest

from repro.errors import TreeStructureError
from repro.trees import UniformTree, exact_value
from repro.types import Gate, TreeKind


@pytest.fixture
def t23():
    # d = 2, n = 3: 8 leaves, 15 nodes.
    return UniformTree(2, 3, np.arange(8) % 2)


class TestIndexing:
    def test_children_formula(self, t23):
        assert t23.children(0) == (1, 2)
        assert t23.children(2) == (5, 6)

    def test_parent_inverse_of_children(self, t23):
        for node in range(t23.num_nodes()):
            for child in t23.children(node):
                assert t23.parent(child) == node

    def test_depth_by_level(self, t23):
        assert t23.depth(0) == 0
        assert t23.depth(1) == 1
        assert t23.depth(6) == 2
        assert t23.depth(14) == 3

    def test_leaves_are_last_level(self, t23):
        assert t23.first_leaf_id() == 7
        assert all(t23.is_leaf(i) for i in range(7, 15))
        assert not any(t23.is_leaf(i) for i in range(7))

    def test_leaf_values_match_array(self, t23):
        for i in range(8):
            assert t23.leaf_value(7 + i) == i % 2

    def test_leaf_index(self, t23):
        assert t23.leaf_index(7) == 0
        assert t23.leaf_index(14) == 7

    def test_leaf_value_on_internal_raises(self, t23):
        with pytest.raises(TreeStructureError):
            t23.leaf_value(3)

    def test_level_offset(self, t23):
        assert [t23.level_offset(k) for k in range(5)] == [0, 1, 3, 7, 15]
        assert t23.level_offset(3) == t23.first_leaf_id()
        assert t23.level_offset(4) == t23.num_nodes()

    def test_counts(self, t23):
        assert t23.num_nodes() == 15
        assert t23.num_leaves() == 8
        assert t23.height() == 3

    def test_ternary_indexing(self):
        t = UniformTree(3, 2, np.zeros(9))
        assert t.children(0) == (1, 2, 3)
        assert t.children(1) == (4, 5, 6)
        assert t.parent(6) == 1
        assert t.depth(12) == 2

    def test_unary_tree(self):
        t = UniformTree(1, 4, np.array([1]))
        assert t.num_nodes() == 5
        assert t.children(0) == (1,)
        # NOR chain of odd length complements the leaf.
        assert exact_value(t) == 1

    def test_height_zero(self):
        t = UniformTree(2, 0, np.array([1]))
        assert t.is_leaf(0)
        assert exact_value(t) == 1


class TestConstruction:
    def test_wrong_leaf_count(self):
        with pytest.raises(TreeStructureError):
            UniformTree(2, 3, np.zeros(7))

    def test_non_boolean_values_rejected(self):
        with pytest.raises(TreeStructureError):
            UniformTree(2, 1, np.array([0, 2]))

    def test_bad_branching(self):
        with pytest.raises(TreeStructureError):
            UniformTree(0, 2, np.zeros(0))

    def test_bad_height(self):
        with pytest.raises(TreeStructureError):
            UniformTree(2, -1, np.zeros(1))

    def test_minmax_values_cast_to_float(self):
        t = UniformTree(2, 1, np.array([3, 4]), kind=TreeKind.MINMAX)
        assert isinstance(t.leaf_value(1), float)

    def test_gate_scheme(self):
        t = UniformTree(2, 2, np.zeros(4), gates=[Gate.OR, Gate.AND])
        assert t.gate(0) is Gate.OR
        assert t.gate(1) is Gate.AND

    def test_validate(self, t23):
        t23.validate()

    def test_exact_value_matches_numpy_reduction(self):
        rng = np.random.default_rng(7)
        leaves = (rng.random(16) < 0.5).astype(int)
        t = UniformTree(2, 4, leaves)
        # Manual NOR reduction level by level.
        level = leaves.copy()
        while len(level) > 1:
            level = 1 - np.maximum(level[0::2], level[1::2])
        assert exact_value(t) == level[0]
