"""Unit tests for the node-expansion model (Boolean)."""

import numpy as np
import pytest

from repro.core import LeftmostPolicy, WidthPolicy, sequential_solve
from repro.core.nodeexpansion import (
    ExpansionState,
    n_parallel_solve,
    n_sequential_solve,
    run_expansion,
)
from repro.analysis import skeleton_of
from repro.errors import ModelViolationError
from repro.trees import ExplicitTree, exact_value, lazy_view
from repro.trees.generators import iid_boolean


def brute_force_frontier(tree, state, width):
    """Frontier nodes with pruning number <= width, by definition."""
    out = []
    stack = [tree.root]
    order = []
    while stack:
        node = stack.pop()
        order.append(node)
        if node in state.expanded:
            stack.extend(reversed(tree.children(node)))
    return [
        n for n in order
        if state.is_frontier(n) and state.pruning_number(n) <= width
    ]


class TestExpansionState:
    def test_root_is_frontier(self):
        t = iid_boolean(2, 3, 0.5, seed=0)
        st = ExpansionState(t)
        assert st.is_frontier(t.root)

    def test_expand_leaf_determines(self):
        t = ExplicitTree.from_nested([1, 0])
        st = ExpansionState(t)
        st.expand(0)
        st.expand(1)  # leaf value 1 absorbs the NOR root
        assert st.value[1] == 1
        assert st.value[0] == 0

    def test_double_expand_rejected(self):
        t = iid_boolean(2, 2, 0.5, seed=0)
        st = ExpansionState(t)
        st.expand(0)
        with pytest.raises(ModelViolationError):
            st.expand(0)

    def test_all_children_zero_determines(self):
        t = ExplicitTree.from_nested([0, 0])
        st = ExpansionState(t)
        st.expand(0)
        st.expand(1)
        assert 0 not in st.value
        st.expand(2)
        assert st.value[0] == 1

    def test_unexpanded_internal_never_determined(self):
        # Even with the tree fully known to us, the model only
        # determines from generated information.
        t = ExplicitTree.from_nested([[1, 1], 0])
        st = ExpansionState(t)
        st.expand(0)
        assert 1 not in st.value  # its children are not generated


class TestSelection:
    @pytest.mark.parametrize("width", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, width, seed):
        rng = np.random.default_rng(seed)
        t = iid_boolean(2, 4, 0.4, seed=seed)
        st = ExpansionState(t)
        for _ in range(6):
            frontier = WidthPolicy(width)(t, st)
            brute = brute_force_frontier(t, st, width)
            assert frontier == brute
            if not frontier:
                break
            st.expand(frontier[int(rng.integers(len(frontier)))])
            if t.root in st.value:
                break

    def test_leftmost_frontier_initially_root(self):
        t = iid_boolean(2, 3, 0.5, seed=1)
        st = ExpansionState(t)
        assert LeftmostPolicy(1)(t, st) == [t.root]

    def test_leftmost_after_root_expansion(self):
        t = iid_boolean(2, 3, 0.5, seed=1)
        st = ExpansionState(t)
        st.expand(0)
        assert LeftmostPolicy(2)(t, st) == [1, 2]


class TestAlgorithms:
    @pytest.mark.parametrize("seed", range(8))
    def test_values_match_oracle(self, seed):
        t = iid_boolean(2 + seed % 2, 4, 0.5, seed=seed)
        assert n_sequential_solve(t).value == exact_value(t)
        assert n_parallel_solve(t, 1).value == exact_value(t)

    def test_sequential_expands_exactly_the_skeleton(self):
        # Section 5: H_T is precisely the set of nodes N-Sequential
        # SOLVE expands.
        for seed in range(6):
            t = iid_boolean(2, 6, 0.4, seed=seed)
            res = n_sequential_solve(t)
            skel = skeleton_of(t)
            assert res.total_work == skel.num_nodes()

    def test_sequential_leaves_match_leaf_model(self):
        for seed in range(6):
            t = iid_boolean(3, 4, 0.3, seed=seed)
            expanded_leaves = [
                v for v in n_sequential_solve(t).evaluated
                if t.is_leaf(v)
            ]
            assert expanded_leaves == sequential_solve(t).evaluated

    def test_width0_equals_sequential(self):
        t = iid_boolean(2, 6, 0.5, seed=9)
        a = run_expansion(t, WidthPolicy(0))
        b = run_expansion(t, LeftmostPolicy(1))
        assert a.evaluated == b.evaluated

    def test_wider_never_slower(self):
        t = iid_boolean(2, 8, 0.45, seed=10)
        steps = [n_parallel_solve(t, w).num_steps for w in range(3)]
        assert all(a >= b for a, b in zip(steps, steps[1:]))

    def test_width1_processors_at_most_n_plus_1(self):
        n = 8
        t = iid_boolean(2, n, 0.5, seed=11)
        assert n_parallel_solve(t, 1).processors <= n + 1

    def test_lazy_tree_counts_match(self):
        t = iid_boolean(2, 7, 0.4, seed=12)
        view = lazy_view(t)
        res = n_sequential_solve(view)
        # The engine's work count equals the lazy tree's expansion
        # counter: the model generated exactly what it was charged for.
        assert res.total_work == view.expansions

    def test_empty_policy_raises(self):
        t = iid_boolean(2, 3, 0.5, seed=0)
        with pytest.raises(ModelViolationError):
            run_expansion(t, lambda tree, st: [])

    def test_single_leaf_tree(self):
        t = ExplicitTree([()], {0: 1})
        res = n_sequential_solve(t)
        assert res.value == 1
        assert res.num_steps == 1
