"""Unit tests for the pruning-process engine: bounds, selection, fixpoint."""

import math

import numpy as np
import pytest

from repro.core import WidthPolicy
from repro.core.alphabeta import AlphaBetaState, prune_to_fixpoint, run_minmax
from repro.errors import ModelViolationError
from repro.trees import ExplicitTree, exact_value
from repro.trees.generators import iid_minmax, iid_minmax_integers
from repro.types import NodeType, TreeKind


def reference_bounds(tree, state, node):
    """Alpha/beta bounds straight from the paper's definitions."""
    alpha, beta = -math.inf, math.inf
    for anc in tree.ancestors(node):
        parent = tree.parent(anc)
        if parent is None:
            continue
        for sib in tree.children(parent):
            if sib == anc:
                continue
            if sib in state.pruned or sib not in state.finished_value:
                continue
            val = state.finished_value[sib]
            if tree.node_type(anc) is NodeType.MIN:
                alpha = max(alpha, val)
            else:
                beta = min(beta, val)
    return alpha, beta


def brute_force_selection(tree, state, width):
    out = []
    for leaf in tree.iter_leaves():
        if leaf in state.finished_value:
            continue
        if not state.in_pruned_tree(leaf):
            continue
        if state.pruning_number(leaf) <= width:
            out.append(leaf)
    return out


class TestPruneFixpoint:
    def test_classic_shallow_cutoff(self):
        # MAX(MIN(5, ...), MIN(3, x)): after seeing 5 and 3, x cannot
        # matter (alpha = 5 >= beta = 3 at x).
        tree = ExplicitTree.from_nested(
            [[5.0, 6.0], [3.0, 9.0]], kind=TreeKind.MINMAX
        )
        st = AlphaBetaState(tree)
        st.finish_leaf(2)
        st.finish_leaf(3)   # node 1 = MIN(5,6) = 5
        st.finish_leaf(5)   # first leaf of second MIN = 3
        pruned = prune_to_fixpoint(st)
        assert pruned >= 1
        assert 6 in st.pruned
        assert st.root_value() == 5.0

    def test_deep_cutoff(self):
        # Height-4 binary tree exercising a depth-2 (deep) cutoff: a
        # bound from the root's first subtree prunes inside the second
        # subtree two MIN/MAX alternations deeper.
        t = iid_minmax(2, 4, seed=42)
        st = AlphaBetaState(t)
        # Finish the entire first subtree of the root.
        from repro.trees.base import subtree_leaves

        first, second = t.children(t.root)
        for leaf in subtree_leaves(t, first):
            st.finish_leaf(leaf)
        prune_to_fixpoint(st)
        # Walk the second subtree: pruning there may only use the
        # alpha bound from the root level = val(first).
        alpha = st.finished_value[first]
        for node in list(st.pruned):
            a, b = reference_bounds(t, st, node)
            assert a >= b  # every prune was justified

    def test_fixpoint_idempotent(self):
        t = iid_minmax(2, 5, seed=1)
        st = AlphaBetaState(t)
        for leaf in list(t.iter_leaves())[:8]:
            if leaf not in st.finished_value:
                st.finish_leaf(leaf)
        prune_to_fixpoint(st)
        assert prune_to_fixpoint(st) == 0

    def test_no_pruning_without_evaluations(self):
        t = iid_minmax(2, 4, seed=2)
        st = AlphaBetaState(t)
        assert prune_to_fixpoint(st) == 0

    def test_prunes_justified_by_reference_bounds(self):
        for seed in range(10):
            t = iid_minmax_integers(2, 5, seed=seed, num_values=4)
            st = AlphaBetaState(t)
            rng = np.random.default_rng(seed)
            leaves = list(t.iter_leaves())
            rng.shuffle(leaves)
            for leaf in leaves[:12]:
                if leaf in st.finished_value or not st.in_pruned_tree(leaf):
                    continue
                st.finish_leaf(leaf)
                before = set(st.pruned)
                prune_to_fixpoint(st)
                # Each new prune must satisfy alpha >= beta under the
                # reference definition *at some point*; we check with
                # current (only-tighter) bounds.
                for node in st.pruned - before:
                    a, b = reference_bounds(t, st, node)
                    assert a >= b


class TestSelection:
    @pytest.mark.parametrize("width", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, width, seed):
        t = iid_minmax(2, 5, seed=seed)
        st = AlphaBetaState(t)
        # Advance a few steps with the engine's own policy first.
        for _ in range(3):
            batch = WidthPolicy(width)(t, st)
            if not batch:
                break
            for leaf in batch:
                st.finish_leaf(leaf)
            prune_to_fixpoint(st)
            if st.is_finished(t.root):
                break
        if not st.is_finished(t.root):
            assert WidthPolicy(width)(t, st) == \
                brute_force_selection(t, st, width)

    def test_empty_after_root_finished(self):
        t = iid_minmax(2, 3, seed=0)
        res = run_minmax(t, WidthPolicy(1))
        st = AlphaBetaState(t)
        for leaf in t.iter_leaves():
            if st.is_finished(t.root):
                break
            if st.in_pruned_tree(leaf) and not st.is_finished(leaf):
                st.finish_leaf(leaf)
                prune_to_fixpoint(st)
        assert st.is_finished(t.root)
        assert WidthPolicy(3)(t, st) == []


class TestRunMinmax:
    def test_value_matches_oracle(self):
        for seed in range(8):
            t = iid_minmax(3, 4, seed=seed)
            res = run_minmax(t, WidthPolicy(1))
            assert res.value == exact_value(t)

    def test_bad_policy_raises(self):
        t = iid_minmax(2, 3, seed=0)
        with pytest.raises(ModelViolationError):
            run_minmax(t, lambda tree, state: [])

    def test_max_steps(self):
        t = iid_minmax(2, 6, seed=0)
        with pytest.raises(ModelViolationError):
            run_minmax(t, WidthPolicy(0), max_steps=3)

    def test_hook_and_batches(self):
        t = iid_minmax(2, 4, seed=3)
        seen = []
        res = run_minmax(
            t, WidthPolicy(1), keep_batches=True,
            on_step=lambda st, i, b: seen.append(len(b)),
        )
        assert seen == res.trace.degrees
        assert res.trace.batches is not None

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            WidthPolicy(-1)
