"""Unit tests for node-expansion alpha-beta."""

import copy

import pytest

from repro.core.alphabeta import alpha_beta
from repro.core.nodeexpansion import (
    ExpansionAlphaBetaState,
    n_parallel_alpha_beta,
    n_sequential_alpha_beta,
)
from repro.errors import ModelViolationError
from repro.trees import ExplicitTree, exact_value, lazy_view
from repro.trees.generators import iid_minmax, iid_minmax_integers
from repro.types import TreeKind


class TestExpansionState:
    def test_expand_of_pruned_node_rejected_state_unchanged(self):
        # MAX( MIN(3, 1, 7), MIN(4, 2) ): leaves 2, 3, 4 under node 1.
        # Expanding the pruned leaf 3 used to finish it, so node 1
        # "finished" on leaves 2 and 3 and read leaf 4's missing value.
        tree = ExplicitTree.from_nested(
            [[3.0, 1.0, 7.0], [4.0, 2.0]], kind=TreeKind.MINMAX
        )
        st = ExpansionAlphaBetaState(tree)
        st.expand(0)
        st.expand(1)
        st.prune(3)

        def snapshot():
            return {
                name: copy.copy(field)
                for name, field in vars(st).items() if name != "tree"
            }

        before = snapshot()
        with pytest.raises(ModelViolationError, match="settled"):
            st.expand(3)
        assert snapshot() == before
        st.expand(2)
        assert not st.is_finished(1)  # leaf 4 is still open
        st.expand(4)
        assert st.finished_value[1] == 3.0  # MIN(3, 7); 1 was pruned


class TestValues:
    @pytest.mark.parametrize("seed", range(10))
    def test_sequential_matches_oracle(self, seed):
        t = iid_minmax(2 + seed % 2, 4, seed=seed)
        assert n_sequential_alpha_beta(t).value == exact_value(t)

    @pytest.mark.parametrize("width", [0, 1, 2])
    def test_parallel_matches_oracle(self, width):
        for seed in range(4):
            t = iid_minmax_integers(2, 5, seed=seed, num_values=4)
            assert n_parallel_alpha_beta(t, width).value == \
                exact_value(t)

    def test_single_leaf(self):
        t = ExplicitTree([()], {0: 3.0}, kind=TreeKind.MINMAX)
        assert n_sequential_alpha_beta(t).value == 3.0


class TestSearchTree:
    @pytest.mark.parametrize("seed", range(10))
    def test_sequential_expands_classical_leaf_set(self, seed):
        # The leaves the node-expansion version evaluates are exactly
        # the classical left-to-right alpha-beta leaf set.
        t = iid_minmax(2, 5, seed=seed)
        expanded_leaves = {
            v for v in n_sequential_alpha_beta(t).evaluated
            if t.is_leaf(v)
        }
        assert expanded_leaves == set(alpha_beta(t).evaluated)

    def test_expansions_exceed_leaf_evaluations(self):
        t = iid_minmax(2, 6, seed=1)
        res = n_sequential_alpha_beta(t)
        leaves = sum(1 for v in res.evaluated if t.is_leaf(v))
        assert res.total_work > leaves  # internal nodes also expanded

    def test_wider_never_slower(self):
        t = iid_minmax(2, 7, seed=2)
        steps = [
            n_parallel_alpha_beta(t, w).num_steps for w in range(3)
        ]
        assert all(a >= b for a, b in zip(steps, steps[1:]))

    def test_width1_processors_bound(self):
        n = 7
        t = iid_minmax(2, n, seed=3)
        assert n_parallel_alpha_beta(t, 1).processors <= n + 1

    def test_lazy_view_only_generates_visited(self):
        t = iid_minmax(2, 8, seed=4)
        view = lazy_view(t)
        n_sequential_alpha_beta(view)
        # Pruning means strictly fewer expansions than the full tree.
        assert view.expansions < t.num_nodes()

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            n_parallel_alpha_beta(iid_minmax(2, 3, seed=0), -1)

    def test_empty_policy_raises(self):
        from repro.core.nodeexpansion import run_expansion_minmax

        t = iid_minmax(2, 3, seed=0)
        with pytest.raises(ModelViolationError):
            run_expansion_minmax(t, lambda tree, st: [])
