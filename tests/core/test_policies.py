"""Unit tests for selection policies, cross-checked against the
brute-force pruning-number definition."""

import numpy as np
import pytest

from repro.core import BooleanState, LeftmostPolicy, WidthPolicy
from repro.trees import ExplicitTree
from repro.trees.generators import iid_boolean


def brute_force_width_selection(tree, state, width):
    """All live leaves with pruning number <= width, by definition."""
    return [
        leaf
        for leaf in tree.iter_leaves()
        if state.is_live(leaf) and state.pruning_number(leaf) <= width
    ]


@pytest.fixture
def tree():
    return ExplicitTree.from_nested([[1, 0], [0, [0, 1]], 1])


class TestLeftmostSelection:
    def test_first_leaf(self, tree):
        state = BooleanState(tree)
        assert LeftmostPolicy(1)(tree, state) == [2]

    def test_first_three(self, tree):
        state = BooleanState(tree)
        assert LeftmostPolicy(3)(tree, state) == [2, 3, 5]

    def test_skips_dead_subtrees(self, tree):
        state = BooleanState(tree)
        state.evaluate_leaf(2)  # kills node 1's subtree
        assert LeftmostPolicy(2)(tree, state) == [5, 7]

    def test_more_than_available(self, tree):
        state = BooleanState(tree)
        got = LeftmostPolicy(99)(tree, state)
        assert got == [2, 3, 5, 7, 8, 9]

    def test_empty_when_root_determined(self, tree):
        state = BooleanState(tree)
        state.evaluate_leaf(9)  # leaf value 1 -> root NOR = 0
        assert LeftmostPolicy(5)(tree, state) == []


class TestWidthSelection:
    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    def test_matches_brute_force_initial(self, tree, width):
        state = BooleanState(tree)
        assert WidthPolicy(width)(tree, state) == \
            brute_force_width_selection(tree, state, width)

    @pytest.mark.parametrize("width", [0, 1, 2, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_midgame(self, width, seed):
        rng = np.random.default_rng(seed)
        tree = iid_boolean(
            int(rng.integers(2, 4)), int(rng.integers(2, 5)),
            0.4, seed=seed,
        )
        state = BooleanState(tree)
        # Evaluate a random subset of live leaves to mid-game state.
        for _ in range(4):
            live = LeftmostPolicy(50)(tree, state)
            if not live:
                break
            state.evaluate_leaf(live[int(rng.integers(len(live)))])
            if state.root_value() is not None:
                break
        if state.root_value() is None:
            assert WidthPolicy(width)(tree, state) == \
                brute_force_width_selection(tree, state, width)

    def test_width_zero_is_leftmost(self, tree):
        state = BooleanState(tree)
        assert WidthPolicy(0)(tree, state) == \
            LeftmostPolicy(1)(tree, state)

    def test_left_to_right_order(self, tree):
        state = BooleanState(tree)
        sel = WidthPolicy(2)(tree, state)
        leaf_order = list(tree.iter_leaves())
        positions = [leaf_order.index(s) for s in sel]
        assert positions == sorted(positions)

    def test_width_one_on_uniform_tree_uses_n_plus_1(self):
        tree = iid_boolean(2, 8, 0.5, seed=0)
        state = BooleanState(tree)
        sel = WidthPolicy(1)(tree, state)
        assert len(sel) <= 9


class TestPolicyObjects:
    def test_sequential_policy(self, tree):
        state = BooleanState(tree)
        assert LeftmostPolicy(1)(tree, state) == [2]

    def test_team_policy(self, tree):
        state = BooleanState(tree)
        assert LeftmostPolicy(2)(tree, state) == [2, 3]

    def test_width_policy(self, tree):
        state = BooleanState(tree)
        assert WidthPolicy(1)(tree, state) == \
            brute_force_width_selection(tree, state, 1)

    def test_invalid_team_size(self):
        with pytest.raises(ValueError):
            LeftmostPolicy(0)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            WidthPolicy(-1)

    def test_policy_names(self):
        assert LeftmostPolicy(4).name == "leftmost(4)"
        assert LeftmostPolicy().name == "leftmost"
        assert WidthPolicy(2).name == "width(2)"
        assert WidthPolicy(2, max_processors=3).name == "width(2, p=3)"
