"""Unit tests for AlphaBetaState: finishes, prunes and cascades."""

import pytest

from repro.core.alphabeta import AlphaBetaState
from repro.errors import ModelViolationError
from repro.trees import ExplicitTree
from repro.types import TreeKind


@pytest.fixture
def tree():
    # MAX( MIN(3, 1), MIN(4, 2) ), preorder ids:
    # 0 MAX; 1 MIN (leaves 2=3.0, 3=1.0); 4 MIN (leaves 5=4.0, 6=2.0)
    return ExplicitTree.from_nested(
        [[3.0, 1.0], [4.0, 2.0]], kind=TreeKind.MINMAX
    )


class TestFinishing:
    def test_leaf_finish(self, tree):
        st = AlphaBetaState(tree)
        assert st.finish_leaf(2) == 3.0
        assert st.is_finished(2)
        assert not st.is_finished(1)

    def test_internal_finish_on_last_child(self, tree):
        st = AlphaBetaState(tree)
        st.finish_leaf(2)
        st.finish_leaf(3)
        assert st.finished_value[1] == 1.0  # MIN(3, 1)

    def test_cascade_to_root(self, tree):
        st = AlphaBetaState(tree)
        for leaf in (2, 3, 5, 6):
            st.finish_leaf(leaf)
        assert st.root_value() == 2.0  # MAX(1, 2)

    def test_double_finish_rejected(self, tree):
        st = AlphaBetaState(tree)
        st.finish_leaf(2)
        with pytest.raises(ModelViolationError):
            st.finish_leaf(2)

    def test_finish_internal_rejected(self, tree):
        st = AlphaBetaState(tree)
        with pytest.raises(ModelViolationError):
            st.finish_leaf(1)

    def test_touched_tracks_ancestry(self, tree):
        st = AlphaBetaState(tree)
        st.finish_leaf(5)
        assert 5 in st.touched and 4 in st.touched and 0 in st.touched
        assert 1 not in st.touched


class TestPruning:
    def test_prune_removes_from_pruned_tree(self, tree):
        st = AlphaBetaState(tree)
        st.prune(4)
        assert st.is_pruned_here(4)
        assert not st.in_pruned_tree(5)
        assert st.in_pruned_tree(2)

    def test_prune_finishes_parent_when_last(self, tree):
        st = AlphaBetaState(tree)
        st.finish_leaf(2)
        st.finish_leaf(3)   # node 1 finished with 1.0
        st.prune(4)         # root's remaining child gone
        assert st.root_value() == 1.0

    def test_prune_finished_node_rejected(self, tree):
        st = AlphaBetaState(tree)
        st.finish_leaf(2)
        st.finish_leaf(3)
        with pytest.raises(ModelViolationError):
            st.prune(1)

    def test_finish_of_pruned_leaf_rejected_state_unchanged(self):
        # MAX( MIN(3, 1, 7), MIN(4, 2) ): leaves 2, 3, 4 under node 1.
        # Finishing the pruned leaf 3 used to settle it twice, so node 1
        # "finished" on leaf 2 alone and read leaf 4's missing value.
        tree = ExplicitTree.from_nested(
            [[3.0, 1.0, 7.0], [4.0, 2.0]], kind=TreeKind.MINMAX
        )
        st = AlphaBetaState(tree)
        st.prune(3)

        def snapshot():
            return (
                dict(st.finished_value), set(st.pruned), set(st.settled),
                set(st.evaluated), set(st.touched), dict(st.max_gain),
                dict(st.min_gain), set(st.dirty),
                dict(st._unfinished_children),
            )

        before = snapshot()
        with pytest.raises(ModelViolationError, match="settled"):
            st.finish_leaf(3)
        assert snapshot() == before
        st.finish_leaf(2)
        assert not st.is_finished(1)  # leaf 4 is still open
        st.finish_leaf(4)
        assert st.finished_value[1] == 3.0  # MIN(3, 7); 1 was pruned

    def test_prune_idempotent(self, tree):
        st = AlphaBetaState(tree)
        st.prune(4)
        st.prune(4)  # no error
        assert st.is_pruned_here(4)

    def test_prune_leaf_inside_min(self, tree):
        st = AlphaBetaState(tree)
        st.finish_leaf(2)   # 3.0
        st.prune(3)         # MIN node 1 now finished = 3.0
        assert st.finished_value[1] == 3.0


class TestPruningNumbers:
    def test_initial_pruning_numbers(self, tree):
        st = AlphaBetaState(tree)
        assert st.pruning_number(2) == 0
        assert st.pruning_number(3) == 1
        assert st.pruning_number(5) == 1
        assert st.pruning_number(6) == 2

    def test_finished_siblings_do_not_count(self, tree):
        st = AlphaBetaState(tree)
        st.finish_leaf(2)
        assert st.pruning_number(3) == 0

    def test_pruned_siblings_do_not_count(self, tree):
        st = AlphaBetaState(tree)
        st.prune(1)
        assert st.pruning_number(5) == 0
        assert st.pruning_number(6) == 1
