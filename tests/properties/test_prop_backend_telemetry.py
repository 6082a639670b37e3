"""Differential property: every backend emits the same telemetry.

All engines run on one step driver, so on every tree the logical-clock
recorder stream — step spans, degree samples and the ``<track>.*``
counters and gauges — must be identical across the rescan,
incremental and arena backends.  Only the incremental backend's own
``frontier.*`` instrumentation is allowed to differ.  Trees are nested
(adversarial-shape) specs plus degenerate shapes: height-0 roots and
arity-1 chains.  Alpha-beta also runs on tie-heavy trees — i.i.d.
leaves with two to four distinct values, uniform up to height 7 and
irregular — where the ``alpha >= beta`` equality cut fires and the
pruning fixpoint needs several rounds per step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parallel_solve, saturation_solve, team_solve
from repro.core.alphabeta import parallel_alpha_beta
from repro.core.nodeexpansion import n_parallel_solve
from repro.telemetry import InMemoryRecorder
from repro.trees import ExplicitTree, UniformTree
from repro.trees.generators import iid_minmax_integers
from repro.types import Gate, TreeKind

from ..conftest import (
    boolean_tree_from_spec,
    minmax_tree_from_spec,
    nested_boolean,
    nested_minmax,
)

GATES = st.sampled_from([Gate.NOR, Gate.OR, Gate.AND, Gate.NAND])

BOOLEAN_TREES = st.one_of(
    st.builds(boolean_tree_from_spec, nested_boolean(), GATES),
    st.builds(
        lambda value: ExplicitTree(
            [[]], {0: value}, kind=TreeKind.BOOLEAN, gates=None
        ),
        st.integers(min_value=0, max_value=1),
    ),
    st.builds(
        lambda height, value, gate: UniformTree(
            1, height, [value], kind=TreeKind.BOOLEAN, gates=gate
        ),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=1),
        GATES,
    ),
)

MINMAX_TREES = st.one_of(
    nested_minmax().map(minmax_tree_from_spec),
    st.builds(
        lambda height, value: UniformTree(
            1, height, [value], kind=TreeKind.MINMAX
        ),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    ),
)


#: (branching, height) of the uniform tie-heavy trees: heights up to 7,
#: at most 256 leaves so the rescan reference stays fast.
TIE_SHAPES = (
    [(2, height) for height in range(2, 8)]
    + [(3, height) for height in range(2, 6)]
    + [(4, height) for height in range(2, 5)]
)

#: Irregular trees whose leaves take two to four distinct values.
TIE_HEAVY_SPECS = st.integers(min_value=2, max_value=4).flatmap(
    lambda distinct: st.recursive(
        st.integers(min_value=0, max_value=distinct - 1).map(float),
        lambda children: st.lists(children, min_size=1, max_size=4),
        max_leaves=60,
    )
).map(minmax_tree_from_spec)


def _stream(run, backend):
    """The run's recorder stream, minus ``frontier.*`` instrumentation."""
    rec = InMemoryRecorder()
    run(backend=backend, recorder=rec)
    metrics = rec.metrics

    def keep(name):
        return not name.startswith("frontier.")

    return (
        [e for e in rec.events if keep(e.name)],
        {k: v for k, v in metrics.counters.items() if keep(k)},
        {k: v for k, v in metrics.gauges.items() if keep(k)},
        {k: v for k, v in metrics.histograms.items() if keep(k)},
    )


def _assert_streams_match(
    run, backends=("rescan", "incremental", "arena")
):
    reference = _stream(run, backends[0])
    assert reference[0], "the run recorded no events"
    for backend in backends[1:]:
        assert _stream(run, backend) == reference, backend


@settings(max_examples=40, deadline=None)
@given(
    BOOLEAN_TREES,
    st.integers(min_value=0, max_value=3),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
def test_parallel_solve_streams_match(tree, width, max_processors):
    _assert_streams_match(
        lambda **kw: parallel_solve(
            tree, width, max_processors=max_processors, **kw
        )
    )


@settings(max_examples=25, deadline=None)
@given(BOOLEAN_TREES, st.integers(min_value=1, max_value=4))
def test_team_solve_streams_match(tree, processors):
    _assert_streams_match(lambda **kw: team_solve(tree, processors, **kw))


@settings(max_examples=25, deadline=None)
@given(BOOLEAN_TREES)
def test_saturation_solve_streams_match(tree):
    _assert_streams_match(lambda **kw: saturation_solve(tree, **kw))


@settings(max_examples=40, deadline=None)
@given(MINMAX_TREES, st.integers(min_value=0, max_value=3))
def test_parallel_alpha_beta_streams_match(tree, width):
    _assert_streams_match(
        lambda **kw: parallel_alpha_beta(tree, width, **kw)
    )


@pytest.mark.parametrize("branching,height", TIE_SHAPES)
@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=3),
)
def test_tie_heavy_uniform_alpha_beta_streams_match(
    branching, height, seed, distinct, width
):
    tree = iid_minmax_integers(
        branching, height, seed=seed, num_values=distinct
    )
    _assert_streams_match(
        lambda **kw: parallel_alpha_beta(tree, width, **kw)
    )


@settings(max_examples=60, deadline=None)
@given(TIE_HEAVY_SPECS, st.integers(min_value=0, max_value=3))
def test_tie_heavy_irregular_alpha_beta_streams_match(tree, width):
    _assert_streams_match(
        lambda **kw: parallel_alpha_beta(tree, width, **kw)
    )


@settings(max_examples=25, deadline=None)
@given(BOOLEAN_TREES, st.integers(min_value=0, max_value=3))
def test_n_parallel_solve_streams_match(tree, width):
    # The expansion model has no arena backend (nothing to lower up
    # front), so the comparison is rescan against incremental.
    _assert_streams_match(
        lambda **kw: n_parallel_solve(tree, width, **kw),
        backends=("rescan", "incremental"),
    )
