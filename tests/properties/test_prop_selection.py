"""Property-based tests for the selection machinery itself.

The two selection rules, :class:`~repro.core.policies.WidthPolicy` and
:class:`~repro.core.policies.LeftmostPolicy`, are one walk each over
all four object-graph models.  ``test_selection_rules_match_definition``
drives each model's state through random legal transitions — the
width-w engine's own batch or an arbitrary set of live terminals — and
at every step checks both rules against the definitions, read off the
model's reference queries (``is_live`` / ``in_pruned_tree`` and
``pruning_number``).  The ``test_minmax_selection_*`` tests pin the
pruning-process width rule against its brute-force definition on their
own.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BooleanState,
    LeftmostPolicy,
    WidthPolicy,
    parallel_solve,
    rank_by_urgency,
)
from repro.core.alphabeta import AlphaBetaState, prune_to_fixpoint
from repro.core.nodeexpansion import ExpansionAlphaBetaState, ExpansionState
from repro.trees import lazy_view
from repro.trees.generators import iid_boolean, iid_minmax

from ..conftest import (
    boolean_tree_from_spec,
    minmax_tree_from_spec,
    nested_boolean,
    nested_minmax,
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
def test_width_selection_size_obeys_code_counting(d, n, w, seed):
    """#selected leaves with pruning number <= w is bounded by the
    code-counting sum: sum_{k<=w} C(n, k)(d-1)^k — the same counting
    as Proposition 3, valid at every step."""
    tree = iid_boolean(d, n, 0.4, seed=seed)
    bound = sum(
        math.comb(n, k) * (d - 1) ** k for k in range(w + 1)
    )
    state = BooleanState(tree)
    policy = WidthPolicy(w)
    while state.root_value() is None:
        batch = policy(tree, state)
        assert len(batch) <= bound
        for leaf in batch:
            state.evaluate_leaf(leaf)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
def test_processor_usage_matches_code_counting(d, n, w, seed):
    tree = iid_boolean(d, n, 0.4, seed=seed)
    bound = sum(
        math.comb(n, k) * (d - 1) ** k for k in range(w + 1)
    )
    assert parallel_solve(tree, w).processors <= bound


@settings(max_examples=30, deadline=None)
@given(nested_minmax(), st.integers(min_value=0, max_value=2))
def test_minmax_selection_matches_definition(spec, width):
    """Width-w selection equals the brute-force definition at every
    step of a full run (MIN/MAX side)."""
    tree = minmax_tree_from_spec(spec)
    state = AlphaBetaState(tree)
    policy = WidthPolicy(width)
    while not state.is_finished(tree.root):
        batch = policy(tree, state)
        brute = [
            leaf
            for leaf in tree.iter_leaves()
            if leaf not in state.finished_value
            and state.in_pruned_tree(leaf)
            and state.pruning_number(leaf) <= width
        ]
        assert batch == brute
        for leaf in batch:
            state.finish_leaf(leaf)
        prune_to_fixpoint(state)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
def test_minmax_selection_on_uniform_trees(d, n, seed):
    tree = iid_minmax(d, n, seed=seed)
    state = AlphaBetaState(tree)
    policy = WidthPolicy(1)
    steps = 0
    while not state.is_finished(tree.root) and steps < 4:
        batch = policy(tree, state)
        for leaf in batch:
            ref = state.pruning_number(leaf)
            assert ref <= 1
        for leaf in batch:
            state.finish_leaf(leaf)
        prune_to_fixpoint(state)
        steps += 1


#: model -> (state class, the transition applied to one terminal,
#: tree kind).  The pruning-process models run the prune fixpoint
#: after every batch, as their engines do.
MODELS = {
    "boolean": (BooleanState, BooleanState.evaluate_leaf, "boolean"),
    "alphabeta": (AlphaBetaState, AlphaBetaState.finish_leaf, "minmax"),
    "expansion": (ExpansionState, ExpansionState.expand, "boolean"),
    "expansion-alphabeta": (
        ExpansionAlphaBetaState, ExpansionAlphaBetaState.expand, "minmax",
    ),
}


@st.composite
def trees_of_kind(draw, kind):
    """Irregular, uniform and lazy trees of one kind."""
    shape = draw(st.sampled_from(["irregular", "uniform", "lazy"]))
    if shape == "uniform":
        d = draw(st.integers(min_value=2, max_value=3))
        n = draw(st.integers(min_value=1, max_value=5))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        if kind == "boolean":
            return iid_boolean(d, n, 0.4, seed=seed)
        return iid_minmax(d, n, seed=seed)
    if kind == "boolean":
        tree = boolean_tree_from_spec(draw(nested_boolean()))
    else:
        tree = minmax_tree_from_spec(draw(nested_minmax()))
    return lazy_view(tree) if shape == "lazy" else tree


def _live_terminals(tree, state):
    """Live terminals in left-to-right order, by the model definitions.

    Terminals are leaves, or in the node-expansion model the generated
    unexpanded nodes; liveness is the model's reference query.
    """
    expanded = state.expanded
    terminals = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if tree.is_leaf(node) if expanded is None else node not in expanded:
            terminals.append(node)
        else:
            stack.extend(reversed(tree.children(node)))
    if isinstance(state, AlphaBetaState):
        return [
            node for node in terminals
            if node not in state.finished_value
            and state.in_pruned_tree(node)
        ]
    return [node for node in terminals if state.is_live(node)]


def _check_rules(tree, state, live):
    scored = [(node, state.pruning_number(node)) for node in live]
    for width in range(4):
        in_range = [(node, pn) for node, pn in scored if pn <= width]
        assert WidthPolicy(width)(tree, state) == [n for n, _ in in_range]
        for cap in (1, 2, 3):
            assert WidthPolicy(width, max_processors=cap)(tree, state) == \
                rank_by_urgency(in_range, cap)
    for limit in (1, 2, 5):
        assert LeftmostPolicy(limit)(tree, state) == live[:limit]
    assert LeftmostPolicy()(tree, state) == live


@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_selection_rules_match_definition(model, data):
    """Both selection rules equal their definitions at every step of a
    random legal run, on every model."""
    state_class, transition, kind = MODELS[model]
    tree = data.draw(trees_of_kind(kind))
    state = state_class(tree)
    while tree.root not in state.settled:
        live = _live_terminals(tree, state)
        _check_rules(tree, state, live)
        if data.draw(st.booleans()):
            batch = WidthPolicy(data.draw(st.integers(0, 3)))(tree, state)
        else:
            batch = data.draw(st.lists(
                st.sampled_from(live), min_size=1, unique=True
            ))
        for node in batch:
            transition(state, node)
        if isinstance(state, AlphaBetaState):
            prune_to_fixpoint(state)
    assert LeftmostPolicy()(tree, state) == []
    assert WidthPolicy(3)(tree, state) == []
