"""Dirty-seeded pruning rounds against the full-tree sweep they replace.

``_reference_fixpoint`` is the pruning fixpoint at its plainest: one
top-down sweep of every touched node per round, rebuilding each
visited node's finished-child list, until a sweep prunes nothing.  :func:`~repro.core.alphabeta.prune_to_fixpoint`
must prune the same nodes in the same order.  Two states over one tree
are driven in lockstep — one pruned by each fixpoint — and after every
fixpoint the counts, the pruned, finished and settled sets and the
settle-notification streams must agree.  The rescan and incremental
backends share ``prune_to_fixpoint``, so the three-backend
differential cannot catch a fault common to both; this test can.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabeta import (
    AlphaBetaState,
    prune_to_fixpoint,
    select_unfinished_by_pruning_number,
)
from repro.core.nodeexpansion import (
    ExpansionAlphaBetaState,
    select_expansion_frontier,
)
from repro.errors import ModelViolationError, PruningInvariantError
from repro.games import TicTacToe, game_tree
from repro.trees import ExplicitTree, UniformTree
from repro.trees.generators import iid_minmax_integers
from repro.trees.lazy import LazyTree
from repro.types import NodeType, TreeKind

from ..conftest import SPECIAL_FLOATS


def _reference_fixpoint(state):
    """The full-tree fixpoint: sweep until a sweep prunes nothing."""
    total = 0
    while True:
        pruned_now = _reference_pass(state)
        total += pruned_now
        if pruned_now == 0:
            return total


def _reference_pass(state):
    """One top-down sweep of the pruning rule over every touched node."""
    tree = state.tree
    root = tree.root
    settled, pruned = state.settled, state.pruned
    touched = state.touched
    finished = state.finished_value
    if root in finished or root not in touched:
        return 0
    count = 0
    stack = [(root, -math.inf, math.inf)]
    while stack:
        node, alpha, beta = stack.pop()
        if node in settled:
            continue
        is_max = tree.node_type(node) is NodeType.MAX
        finished_vals = [
            finished[c]
            for c in tree.children(node)
            if c in finished and c not in pruned
        ]
        if is_max:
            child_alpha = max([alpha] + finished_vals)
            child_beta = beta
        else:
            child_alpha = alpha
            child_beta = min([beta] + finished_vals)
        for child in tree.children(node):
            if child in settled:
                continue
            if child_alpha >= child_beta:
                state.prune(child)
                count += 1
                if node in settled:
                    break
                continue
            if child in touched:
                stack.append((child, child_alpha, child_beta))
    return count


class _Lockstep:
    """Two states over one tree: ``new`` and ``ref`` fixpoints."""

    def __init__(self, tree, state_cls=AlphaBetaState):
        self.tree = tree
        self.new, self.ref = state_cls(tree), state_cls(tree)
        self.new_log, self.ref_log = [], []
        self.new.subscribe(self.new_log.append)
        self.ref.subscribe(self.ref_log.append)

    def apply(self, op):
        """Apply ``op(state)`` to both; False once either raises."""
        raised = []
        for state in (self.new, self.ref):
            try:
                op(state)
            except (ModelViolationError, PruningInvariantError) as exc:
                raised.append(type(exc))
            else:
                raised.append(None)
        assert raised[0] is raised[1]
        self.check()
        return raised[0] is None

    def fixpoint(self):
        assert prune_to_fixpoint(self.new) == _reference_fixpoint(self.ref)
        self.check()
        assert prune_to_fixpoint(self.new) == 0

    def check(self):
        new, ref = self.new, self.ref
        assert new.pruned == ref.pruned
        assert new.settled == ref.settled
        # repr tokens tell NaN and the two zeros apart.
        assert {n: repr(v) for n, v in new.finished_value.items()} == {
            n: repr(v) for n, v in ref.finished_value.items()
        }
        assert self.new_log == self.ref_log

    def done(self):
        return self.tree.root in self.new.finished_value


# -- trees --------------------------------------------------------------
#: Few distinct values, so many finishes tie with a bound.
_TIES = (0.0, 1.0, 2.0)


def _uniform(branching, height, pool, seed):
    """A uniform MIN/MAX tree with leaves drawn from ``pool``."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(pool), size=branching ** height).tolist()
    return UniformTree(
        branching, height, [pool[i] for i in picks], kind=TreeKind.MINMAX
    )


def _lazy(spec, root_is_max):
    def expand(payload, depth):
        if isinstance(payload, list):
            return ("internal", payload)
        return ("leaf", payload)

    return LazyTree(
        spec, expand, kind=TreeKind.MINMAX, root_is_max=root_is_max
    )


@st.composite
def minmax_trees(draw):
    """Tie-heavy or special-float leaves on uniform, irregular and
    lazy (either root polarity) trees."""
    pool = draw(st.sampled_from([_TIES, SPECIAL_FLOATS]))
    shape = draw(st.sampled_from(["uniform", "irregular", "lazy"]))
    if shape == "uniform":
        branching = draw(st.integers(min_value=2, max_value=4))
        height = draw(st.integers(
            min_value=1, max_value={2: 6, 3: 4, 4: 3}[branching]
        ))
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return _uniform(branching, height, pool, seed)
    spec = draw(st.recursive(
        st.sampled_from(pool),
        lambda children: st.lists(children, min_size=1, max_size=4),
        max_leaves=48,
    ))
    if not isinstance(spec, list):
        spec = [spec]
    if shape == "irregular":
        return ExplicitTree.from_nested(spec, kind=TreeKind.MINMAX)
    return _lazy(spec, draw(st.booleans()))


# -- engine-driven states -------------------------------------------------
def _drive_leaf_engine(pair, width):
    tree = pair.tree
    while not pair.done():
        batch = select_unfinished_by_pruning_number(tree, pair.new, width)
        assert batch == select_unfinished_by_pruning_number(
            tree, pair.ref, width
        )
        assert batch
        for leaf in batch:
            pair.apply(lambda state, leaf=leaf: state.finish_leaf(leaf))
        pair.fixpoint()


def _drive_expansion_engine(pair, width):
    tree = pair.tree
    while not pair.done():
        batch = select_expansion_frontier(tree, pair.new, width)
        assert batch == select_expansion_frontier(tree, pair.ref, width)
        assert batch
        for node in batch:
            pair.apply(lambda state, node=node: state.expand(node))
        pair.fixpoint()


@settings(max_examples=150, deadline=None)
@given(minmax_trees(), st.integers(min_value=0, max_value=3))
def test_engine_driven_matches_reference(tree, width):
    _drive_leaf_engine(_Lockstep(tree), width)


@settings(max_examples=100, deadline=None)
@given(minmax_trees(), st.integers(min_value=0, max_value=3))
def test_node_expansion_matches_reference(tree, width):
    _drive_expansion_engine(_Lockstep(tree, ExpansionAlphaBetaState), width)


@pytest.mark.parametrize("width", [0, 1, 2])
@pytest.mark.parametrize("seed", range(30))
def test_tie_heavy_runs_match_reference(seed, width):
    """A fixed sweep of tie-heavy trees, where many rounds start from
    several seeds at once and their order shows in the settle stream."""
    tree = iid_minmax_integers(3, 4, seed=seed, num_values=3)
    _drive_leaf_engine(_Lockstep(tree), width)


@pytest.mark.parametrize("width", [0, 1, 2])
@pytest.mark.parametrize("seed", range(30))
def test_special_float_runs_match_reference(seed, width):
    """A fixed sweep of NaN, +-inf and +-0.0 leaves: a NaN finish must
    not move a gain, or a cut above it goes missing."""
    tree = _uniform(3, 4, SPECIAL_FLOATS, seed)
    _drive_leaf_engine(_Lockstep(tree), width)
    tree = _uniform(3, 4, SPECIAL_FLOATS, seed)
    _drive_expansion_engine(_Lockstep(tree, ExpansionAlphaBetaState), width)


@pytest.mark.parametrize("width", [0, 1, 2])
@pytest.mark.parametrize("square", [0, 4])
def test_minimiser_to_move_game_matches_reference(square, width):
    """Tic-tac-toe after X's first move: O, the MIN player, moves at
    the root.  Cut at depth 4 so the run stays small."""
    game = TicTacToe()
    start = game.apply(game.initial_position(), square)
    for state_cls, drive in (
        (AlphaBetaState, _drive_leaf_engine),
        (ExpansionAlphaBetaState, _drive_expansion_engine),
    ):
        tree = game_tree(game, start, max_depth=4)
        assert not tree.root_is_max
        drive(_Lockstep(tree, state_cls), width)


# -- externally driven states ---------------------------------------------
@settings(max_examples=150, deadline=None)
@given(minmax_trees(), st.data())
def test_external_driving_matches_reference(tree, data):
    """Shuffled leaf finishes, direct prunes and fixpoints at arbitrary
    points, including finishes and prunes inside pruned subtrees."""
    pair = _Lockstep(tree)
    leaves = data.draw(st.permutations(list(tree.iter_leaves())))
    nodes = list(tree.iter_nodes())
    ops = data.draw(st.lists(
        st.sampled_from(["finish", "finish", "prune", "fixpoint"]),
        max_size=3 * len(leaves),
    ))
    for op in ops:
        if op == "fixpoint":
            pair.fixpoint()
            continue
        if op == "finish":
            # A leaf carrying its own prune flag is out of the model.
            open_leaves = [
                leaf for leaf in leaves
                if leaf not in pair.new.evaluated
                and leaf not in pair.new.pruned
            ]
            if not open_leaves:
                continue
            leaf = open_leaves[0]
            ok = pair.apply(lambda state: state.finish_leaf(leaf))
        else:
            open_nodes = [n for n in nodes if n not in pair.new.settled]
            if not open_nodes:
                continue
            node = data.draw(st.sampled_from(open_nodes))
            ok = pair.apply(lambda state: state.prune(node))
        if not ok:
            return  # a pruning invariant fired identically on both
    pair.fixpoint()
