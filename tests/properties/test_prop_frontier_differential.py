"""Differential properties: rescan == arena == the default backend.

Every width-w engine accepts ``backend="rescan" | "arena"``, and
``None`` picks the default (the arena for a bounded machine, rescan
otherwise); all must be *step-for-step* identical — same root value,
same per-step degree sequence, same per-step batches (and therefore
the same ``most_urgent`` selections on the bounded variants, which
pick ``p`` of the live leaves each step) — on arbitrary tree shapes.
The suite drives all backends over nested (adversarial-shape) and
iid-generated instances; together the tests here exercise well over
275 generated instances per run.  The node-expansion model is the
exception: it grows the tree as it goes, which the arena's fixed
up-front lowering contradicts, so there only rescan runs and arena is
pinned to a loud rejection.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    parallel_solve,
    saturation_solve,
    sequential_solve,
    team_solve,
)
from repro.core.alphabeta import (
    minimax,
    parallel_alpha_beta,
    sequential_alpha_beta,
)
from repro.core.nodeexpansion import n_parallel_solve
from repro.trees import UniformTree
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias
from repro.types import Gate, TreeKind

from ..conftest import (
    boolean_tree_from_spec,
    minmax_tree_from_spec,
    nested_boolean,
    nested_minmax,
)

GATES = st.sampled_from([Gate.NOR, Gate.OR, Gate.AND, Gate.NAND])

#: Leaves whose equal values differ in sign: which of two tied
#: children a fold keeps shows in the sign of a zero result.
SIGNED_ZEROS = st.sampled_from([0.0, -0.0, 1.0, -1.0])


def _sign(value):
    return math.copysign(1.0, value)


def _signature(result):
    return (
        result.value, _sign(result.value), result.trace.degrees,
        result.trace.batches,
    )


def _assert_backends_match(
    solver, *args, backends=("rescan", "arena", None), **kwargs
):
    reference = solver(
        *args, keep_batches=True, backend=backends[0], **kwargs
    )
    for backend in backends[1:]:
        other = solver(*args, keep_batches=True, backend=backend, **kwargs)
        assert _signature(other) == _signature(reference), backend
    return reference


@settings(max_examples=60, deadline=None)
@given(nested_boolean(), GATES, st.integers(min_value=0, max_value=3))
def test_width_backends_identical_nested(spec, gate, width):
    tree = boolean_tree_from_spec(spec, gates=gate)
    _assert_backends_match(parallel_solve, tree, width)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_width_backends_identical_iid(branching, height, seed):
    tree = iid_boolean(
        branching, height, level_invariant_bias(branching), seed=seed
    )
    for width in (1, 2):
        _assert_backends_match(parallel_solve, tree, width)
    for width, procs in ((2, 2), (3, 1)):
        _assert_backends_match(
            parallel_solve, tree, width, max_processors=procs
        )


@settings(max_examples=50, deadline=None)
@given(nested_boolean(), GATES)
def test_bounded_team_saturation_backends_identical(spec, gate):
    tree = boolean_tree_from_spec(spec, gates=gate)
    for width, procs in ((2, 1), (3, 2)):
        _assert_backends_match(
            parallel_solve, tree, width, max_processors=procs
        )
    for procs in (1, 2, 5):
        _assert_backends_match(team_solve, tree, procs)
    _assert_backends_match(saturation_solve, tree)


@settings(max_examples=50, deadline=None)
@given(nested_boolean(), GATES)
def test_width0_equals_sequential(spec, gate):
    tree = boolean_tree_from_spec(spec, gates=gate)
    seq = sequential_solve(tree)
    for backend in ("rescan", "arena"):
        w0 = parallel_solve(
            tree, 0, keep_batches=True, backend=backend
        )
        assert (seq.value, seq.trace.degrees) == (
            w0.value, w0.trace.degrees
        )
        # Width 0 *is* Sequential SOLVE: same leaves, same order.
        assert [leaf for (leaf,) in w0.trace.batches] == seq.evaluated


def _assert_alphabeta_matches_minimax(tree, width):
    result = _assert_backends_match(parallel_alpha_beta, tree, width)
    # Cross-checks: parallel alpha-beta at any width, sequential
    # alpha-beta on every backend, and plain minimax all agree on the
    # value.  The backends agree down to the sign of a zero; minimax
    # need not, since a pruned leaf may hold the zero whose sign
    # minimax keeps.
    sequential = [
        sequential_alpha_beta(tree, backend=backend).value
        for backend in ("rescan", "arena")
    ]
    assert _sign(sequential[0]) == _sign(sequential[1])
    truth = minimax(tree).value
    for value in [result.value] + sequential:
        assert value == truth


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(
        nested_minmax(),
        st.recursive(
            SIGNED_ZEROS,
            lambda children: st.lists(children, min_size=1, max_size=3),
            max_leaves=20,
        ),
    ),
    st.integers(min_value=0, max_value=2),
)
@example([[-1.0], [0.0, 0.0, -1.0], -0.0], 2)
@example([[-1.0], [0.0, 0.0, 5.0], -0.0], 2)
def test_alphabeta_backends_identical(spec, width):
    _assert_alphabeta_matches_minimax(minmax_tree_from_spec(spec), width)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
def test_alphabeta_backends_agree_on_signed_zeros(
    branching, height, width, data
):
    leaves = data.draw(st.lists(
        SIGNED_ZEROS, min_size=branching ** height,
        max_size=branching ** height,
    ))
    tree = UniformTree(branching, height, leaves, kind=TreeKind.MINMAX)
    _assert_alphabeta_matches_minimax(tree, width)


@settings(max_examples=40, deadline=None)
@given(nested_boolean(), GATES, st.integers(min_value=0, max_value=2))
def test_expansion_backends_identical(spec, gate, width):
    tree = boolean_tree_from_spec(spec, gates=gate)
    _assert_backends_match(
        n_parallel_solve, tree, width, backends=("rescan", None)
    )
    with pytest.raises(ValueError, match="no arena backend"):
        n_parallel_solve(tree, width, backend="arena")
