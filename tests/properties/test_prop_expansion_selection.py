"""Node-expansion alpha-beta selection against its definition.

N-Parallel alpha-beta of width w expands, at every step, the frontier
nodes of the pruned tree over the generated tree — unexpanded nodes of
T-tilde ∩ T* that are not settled — whose pruning number is at most w.
The budgeted walk computes that set directly; this property checks it
against a brute-force enumeration at every step of a real run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nodeexpansion import (
    NAlphaBetaWidthPolicy,
    run_expansion_minmax,
)

from ..conftest import minmax_tree_from_spec, nested_minmax


def _brute_force_frontier(tree, state, width):
    """Selectable nodes by definition, in left-to-right order."""
    generated = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        generated.append(node)
        if node in state.expanded:
            stack.extend(reversed(tree.children(node)))
    return [
        node
        for node in generated
        if node not in state.expanded
        and node not in state.finished_value
        and state.in_pruned_tree(node)
        and state.pruning_number(node) <= width
    ]


@settings(max_examples=40, deadline=None)
@given(nested_minmax(), st.integers(min_value=0, max_value=3))
def test_expansion_selection_matches_definition(spec, width):
    tree = minmax_tree_from_spec(spec)
    policy = NAlphaBetaWidthPolicy(width)
    checked = []

    def checking_policy(tree, state):
        batch = policy(tree, state)
        assert batch == _brute_force_frontier(tree, state, width)
        checked.append(batch)
        return batch

    result = run_expansion_minmax(
        tree, checking_policy, keep_batches=True
    )
    assert [tuple(b) for b in checked] == result.trace.batches
