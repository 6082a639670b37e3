"""Unit tests for the columnar arena engines and selection kernels."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LeftmostPolicy,
    WidthPolicy,
    arena_solve,
    parallel_solve,
    saturation_solve,
    team_solve,
)
from repro.core.alphabeta import (
    parallel_alpha_beta,
    sequential_alpha_beta,
)
from repro.core.alphabeta.engine import run_minmax
from repro.core.arena import alphabeta as arena_alphabeta
from repro.core.arena import arena_alpha_beta
from repro.core.arena import boolean as arena_boolean
from repro.core.arena import most_urgent, select_width
from repro.core.arena import selection as arena_selection
from repro.core.arena.selection import (
    WidthWalk,
    _live_index,
    children_of_many,
)
from repro.core.nodeexpansion import n_parallel_solve
from repro.core.shm import ShmOptions
from repro.core.shm.pool import _worker_init
from repro.errors import (
    BackendUnsupportedError,
    ModelViolationError,
    TreeStructureError,
)
from repro.telemetry import InMemoryRecorder
from repro.trees import ExplicitTree, UniformTree, canonical_arrays
from repro.trees.generators import (
    iid_boolean,
    iid_minmax,
    iid_minmax_integers,
)
from repro.trees.generators.iid import level_invariant_bias
from repro.types import Gate, TreeKind

from ..conftest import (
    SPECIAL_FLOATS,
    boolean_tree_from_spec,
    minmax_tree_from_spec,
    nested_boolean,
    nested_minmax,
    uniform_trees,
)


def _signature(result):
    return (result.value, result.trace.degrees, result.trace.batches)


@pytest.fixture(scope="module")
def boolean_tree():
    return iid_boolean(3, 5, level_invariant_bias(3), seed=17)


@pytest.fixture(scope="module")
def minmax_tree():
    return iid_minmax(3, 5, seed=17)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------
def test_pure_engines_match_rescan(boolean_tree):
    for width in (0, 1, 3):
        arena = arena_solve(
            boolean_tree, WidthPolicy(width), keep_batches=True
        )
        reference = parallel_solve(
            boolean_tree, width, keep_batches=True, backend="rescan"
        )
        assert _signature(arena) == _signature(reference)
        assert arena.evaluated == reference.evaluated


def test_bounded_single_processor(boolean_tree):
    arena = arena_solve(
        boolean_tree, WidthPolicy(2, max_processors=1), keep_batches=True
    )
    reference = parallel_solve(
        boolean_tree, 2, max_processors=1, keep_batches=True,
        backend="rescan",
    )
    assert _signature(arena) == _signature(reference)
    assert all(len(batch) == 1 for batch in arena.trace.batches)


def test_team_and_saturation(boolean_tree):
    for procs in (1, 3):
        arena = arena_solve(
            boolean_tree, LeftmostPolicy(procs), keep_batches=True
        )
        reference = team_solve(
            boolean_tree, procs, keep_batches=True, backend="rescan"
        )
        assert _signature(arena) == _signature(reference)
    arena = arena_solve(boolean_tree, LeftmostPolicy(), keep_batches=True)
    reference = saturation_solve(
        boolean_tree, keep_batches=True, backend="rescan"
    )
    assert _signature(arena) == _signature(reference)


def test_alpha_beta_widths(minmax_tree):
    for width in (0, 1, 2):
        arena = arena_alpha_beta(
            minmax_tree, WidthPolicy(width), keep_batches=True
        )
        reference = parallel_alpha_beta(
            minmax_tree, width, keep_batches=True, backend="rescan"
        )
        assert _signature(arena) == _signature(reference)
        assert arena.evaluated == reference.evaluated


@pytest.mark.parametrize(
    "policy",
    [
        LeftmostPolicy(1), LeftmostPolicy(3), LeftmostPolicy(),
        WidthPolicy(2, max_processors=2),
    ],
    ids=["leftmost-1", "leftmost-3", "leftmost", "width-2-p2"],
)
def test_alpha_beta_runs_every_policy_like_rescan(minmax_tree, policy):
    # The arena's pruning process takes any policy object, as
    # run_minmax does, through the same selection adapter.
    arena = arena_alpha_beta(minmax_tree, policy, keep_batches=True)
    reference = run_minmax(minmax_tree, policy, keep_batches=True)
    assert _signature(arena) == _signature(reference)
    assert arena.evaluated == reference.evaluated


def test_alpha_beta_width0_is_sequential(minmax_tree):
    arena = sequential_alpha_beta(minmax_tree, backend="arena")
    reference = sequential_alpha_beta(minmax_tree, backend="rescan")
    assert arena.value == reference.value
    assert arena.num_steps == reference.num_steps


def test_max_steps_enforced(boolean_tree):
    with pytest.raises(ModelViolationError):
        arena_solve(boolean_tree, WidthPolicy(0), max_steps=2)


def test_boolean_engine_rejects_minmax(minmax_tree):
    with pytest.raises(TreeStructureError):
        arena_solve(minmax_tree, WidthPolicy(1))


def test_nodeexpansion_rejects_arena(boolean_tree):
    with pytest.raises(ValueError, match="no arena backend"):
        n_parallel_solve(boolean_tree, 1, backend="arena")


@pytest.mark.parametrize(
    "engine,tree_fixture",
    [
        (parallel_solve, "boolean_tree"),
        (parallel_alpha_beta, "minmax_tree"),
    ],
    ids=["parallel-solve", "parallel-alpha-beta"],
)
def test_on_step_rejected_on_arena(engine, tree_fixture, request):
    # The arena never builds the object-graph state an on_step hook
    # observes, so the hook needs rescan.
    tree = request.getfixturevalue(tree_fixture)
    calls = []
    with pytest.raises(BackendUnsupportedError) as exc_info:
        engine(
            tree, 2, backend="arena",
            on_step=lambda *a: calls.append(a),
        )
    assert exc_info.value.backend == "arena"
    assert exc_info.value.executor == "inline"
    assert calls == []


def test_recorder_streams_match_rescan(boolean_tree):
    arena_rec = InMemoryRecorder()
    arena_solve(boolean_tree, WidthPolicy(2), recorder=arena_rec)
    rescan_rec = InMemoryRecorder()
    parallel_solve(boolean_tree, 2, backend="rescan", recorder=rescan_rec)
    assert arena_rec.events == rescan_rec.events


def test_alpha_beta_recorder_has_pruned_spans(minmax_tree):
    rec = InMemoryRecorder()
    arena_alpha_beta(minmax_tree, WidthPolicy(1), recorder=rec)
    spans = [e for e in rec.events if e.kind == "span"]
    assert spans and all(e.track == "alphabeta" for e in spans)
    assert any(dict(e.attrs).get("pruned", 0) > 0 for e in spans)


def test_irregular_explicit_tree():
    # Arity-1 chain into mixed gates — exercises non-uniform levels.
    tree = ExplicitTree(
        children=[[1], [2, 3], [4, 5], [], [], []],
        leaf_values={3: 0, 4: 1, 5: 0},
        kind=TreeKind.BOOLEAN,
        gates={0: Gate.NAND, 1: Gate.OR, 2: Gate.AND},
    )
    for width in (0, 1, 2):
        arena = arena_solve(tree, WidthPolicy(width), keep_batches=True)
        reference = parallel_solve(
            tree, width, keep_batches=True, backend="rescan"
        )
        assert _signature(arena) == _signature(reference)


# ---------------------------------------------------------------------------
# degenerate shapes: arities of 0 and 1, ties, forced values
# ---------------------------------------------------------------------------
#: Leaves at depths 1 to 4 under parents of arity 1, 2 and 3.
_MIXED_ARITY = [[1, [0, [1]]], 0, [[1, 0, 1], [[0]]]]

DEGENERATE_BOOLEAN = {
    "height0-uniform": UniformTree(3, 0, [1], kind=TreeKind.BOOLEAN),
    "height0-explicit": ExplicitTree(
        [[]], {0: 0}, kind=TreeKind.BOOLEAN, gates=None
    ),
    "chain": UniformTree(1, 6, [1], kind=TreeKind.BOOLEAN),
    "all-absorbing": iid_boolean(3, 4, 1.0, seed=0),
    "all-non-absorbing": iid_boolean(2, 5, 0.0, seed=0),
    "mixed-arity": ExplicitTree.from_nested(_MIXED_ARITY, gates=Gate.NOR),
    "mixed-arity-and-or": ExplicitTree.from_nested(
        _MIXED_ARITY, gates=[Gate.AND, Gate.OR]
    ),
}

DEGENERATE_MINMAX = {
    "height0-uniform": UniformTree(2, 0, [3.5], kind=TreeKind.MINMAX),
    "chain": UniformTree(1, 5, [2.0], kind=TreeKind.MINMAX),
    "ties-1": iid_minmax_integers(3, 4, seed=5, num_values=1),
    "ties-2": iid_minmax_integers(3, 4, seed=5, num_values=2),
    "ties-2-binary": iid_minmax_integers(2, 6, seed=9, num_values=2),
    "mixed-arity": ExplicitTree.from_nested(
        [[4, [2, [7]]], 5, [[1, 5, 3], [[6]]]], kind=TreeKind.MINMAX
    ),
}


def _thread_factory(spec, oracle):
    """In-process stand-in for the shm worker pool: same initializer,
    same shared-memory reads and writes, no fork cost."""
    return ThreadPoolExecutor(
        max_workers=2, initializer=_worker_init, initargs=(spec, oracle)
    )


#: Each backend/executor the degenerate corpus runs through.
_CONFIGS = (
    {"backend": "arena"},
    {"backend": "rescan"},
    {
        "backend": "arena", "executor": "shm",
        "shm_options": ShmOptions(
            workers=2, executor_factory=_thread_factory
        ),
    },
)


def _assert_backends_agree(engine, *args):
    """Arena, rescan and arena over shm: same batches, accounting
    and logical-clock telemetry."""
    runs = []
    for config in _CONFIGS:
        rec = InMemoryRecorder()
        result = engine(*args, keep_batches=True, recorder=rec, **config)
        runs.append((
            _signature(result), result.evaluated, result.num_steps,
            rec.events,
        ))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("name", sorted(DEGENERATE_BOOLEAN))
def test_degenerate_boolean_trees(name):
    tree = DEGENERATE_BOOLEAN[name]
    for width in (0, 1, 2, 8):
        _assert_backends_agree(parallel_solve, tree, width)
    for procs in (1, 2, 3):
        _assert_backends_agree(team_solve, tree, procs)
    _assert_backends_agree(saturation_solve, tree)


@pytest.mark.parametrize("name", sorted(DEGENERATE_MINMAX))
def test_degenerate_minmax_trees(name):
    tree = DEGENERATE_MINMAX[name]
    for width in (0, 1, 2, 8):
        _assert_backends_agree(parallel_alpha_beta, tree, width)


# ---------------------------------------------------------------------------
# prune rounds: trees that pinned the rules of an earlier dirty-node sweep
# ---------------------------------------------------------------------------
#: (nested spec, width, per-step ``pruned=`` counts).  Each tree pinned
#: one rule of an earlier prune round that started at the nodes whose
#: bounds had changed ("dirty"): without the rule, that round's counts
#: differed from those of a pass from the root.
SWEEP_RULE_TREES = {
    # Step 2 finishes the MIN node [0, 0, 0] at 0, which raises the
    # root's alpha to 0.  The MIN node [0, [0, 0]] already has beta 0,
    # so it cuts and dooms its open child [0, 0] — a node whose bounds
    # the same step's leaf changed.  Visiting it would prune its second
    # leaf.
    "dirty-node-doomed-in-same-sweep": ([[0, 0, 0], [0, [0, 0]]], 1, [0, 1]),
    # Step 2's last leaf lowers the first MIN node's beta to the root's
    # alpha 0, which dooms its open child [0, 0, [0, 0]].  The same
    # step's leaf changed the bounds of the node [0, 0] one level
    # further down; visiting it would prune its second leaf.
    "dirty-node-below-doomed": (
        [[1, [0, 0, [0, 0]], 0], 0], 1, [0, 1],
    ),
    # Step 2 touches the MIN node [0, 0] for the first time: it must
    # inherit the root's alpha 0, so its first leaf's 0 cuts its second
    # leaf.  With the initial (-inf, inf) it would evaluate that leaf.
    "newly-touched-node-inherits-bounds": ([0, [0, 0]], 0, [0, 1]),
}


@pytest.mark.parametrize("name", sorted(SWEEP_RULE_TREES))
def test_prune_sweep_matches_root_pass_pruned_counts(name):
    spec, width, expected = SWEEP_RULE_TREES[name]
    tree = ExplicitTree.from_nested(spec, kind=TreeKind.MINMAX)

    def pruned_per_step(backend):
        rec = InMemoryRecorder()
        parallel_alpha_beta(tree, width, backend=backend, recorder=rec)
        return [
            dict(e.attrs)["pruned"] for e in rec.events if e.kind == "span"
        ]

    assert pruned_per_step("rescan") == expected
    assert pruned_per_step("arena") == expected


# ---------------------------------------------------------------------------
# the prune round against a brute-force root-path oracle
# ---------------------------------------------------------------------------
def _root_path_doomed(arena):
    """The open children a prune round must doom, from first principles.

    A node's alpha is the max of the finished-child values of the MAX
    nodes on its root path (itself included), its beta the min over
    the MIN ones.  The candidates are the touched, unsettled nodes with
    no settled ancestor; a round dooms the open children of each
    candidate that cuts (alpha >= beta) while its parent does not.
    """
    arrays = arena.arrays
    parents = arrays.parents.tolist()
    finished = arena.finished.tolist()
    settled = (arena.finished | arena.pruned).tolist()
    value = arena.finished_value.tolist()
    touched = [False] * arrays.n_nodes
    for leaf in np.flatnonzero(arrays.is_leaf & arena.finished).tolist():
        node = leaf
        while node >= 0 and not touched[node]:
            touched[node] = True
            node = parents[node]
    bounds, cuts, free = {}, {}, {}
    doomed = set()
    # Preorder: every parent comes before its children.
    for node in range(arrays.n_nodes):
        up = parents[node]
        alpha, beta = bounds.get(up, (-math.inf, math.inf))
        gains = [
            value[c] for c in arrays.children_of(node) if finished[c]
        ]
        if arrays.depths[node] % 2 == 0:
            alpha = max([alpha] + gains)
        else:
            beta = min([beta] + gains)
        bounds[node] = (alpha, beta)
        cuts[node] = alpha >= beta
        free[node] = not settled[node] and free.get(up, True)
        if (
            touched[node] and free[node] and cuts[node]
            and not cuts.get(up, False)
        ):
            doomed.update(
                c for c in arrays.children_of(node) if not settled[c]
            )
    return doomed


def _assert_rounds_match_oracle(tree):
    original = arena_alphabeta._AlphaBetaArena._sweep
    rounds = []

    def sweep(arena):
        expected = _root_path_doomed(arena)
        before = arena.pruned.copy()
        count = original(arena)
        assert set(np.flatnonzero(arena.pruned & ~before).tolist()) == (
            expected
        )
        assert count == len(expected)
        rounds.append(count)
        return count

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arena_alphabeta._AlphaBetaArena, "_sweep", sweep)
        for width in range(4):
            arena_alpha_beta(tree, WidthPolicy(width))
    assert rounds


#: Few distinct values, so bounds tie and cut with ``alpha == beta``.
_TIE_POOLS = ((0.0, 1.0), (0.0, 1.0, 2.0), (-math.inf, 0.0, math.inf))


@st.composite
def _tie_heavy_uniform(draw):
    branching = draw(st.integers(min_value=1, max_value=4))
    height = draw(st.integers(min_value=0, max_value=7 - branching))
    pool = draw(st.sampled_from(_TIE_POOLS))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    leaves = np.random.default_rng(seed).choice(pool, branching ** height)
    return UniformTree(branching, height, leaves, kind=TreeKind.MINMAX)


@settings(max_examples=60, deadline=None)
@given(_tie_heavy_uniform())
def test_prune_rounds_match_root_path_oracle_on_uniform_trees(tree):
    _assert_rounds_match_oracle(tree)


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    st.sampled_from([0, 1, 2, -math.inf, math.inf]),
    lambda children: st.lists(children, min_size=1, max_size=3),
    max_leaves=24,
))
def test_prune_rounds_match_root_path_oracle_on_irregular_trees(spec):
    _assert_rounds_match_oracle(minmax_tree_from_spec(spec))


#: Trees with a MAX node all of whose finished children are -inf (and a
#: MIN node whose are +inf): a gain equal to its start value must not
#: read as "no finished child".
INFINITE_GAIN_TREES = {
    "max-below-min": [[[-math.inf, -math.inf], 0], 1],
    "max-at-root": [-math.inf, -math.inf, -math.inf],
    "cut-above-infinite-max": [[1, [[-math.inf, -math.inf], 2]], 0],
    "min-all-inf": [0, [[math.inf, math.inf], [math.inf]]],
}


@pytest.mark.parametrize("name", sorted(INFINITE_GAIN_TREES))
def test_infinite_gains_finish_without_invariant_error(name):
    tree = minmax_tree_from_spec(INFINITE_GAIN_TREES[name])
    for width in (0, 1, 2, 8):
        _assert_backends_agree(parallel_alpha_beta, tree, width)
    _assert_rounds_match_oracle(tree)


# ---------------------------------------------------------------------------
# the fixpoint rule: a step's prune rounds leave nothing to prune
# ---------------------------------------------------------------------------
def _assert_no_round_after_fixpoint_prunes(tree):
    """After every step, one more prune round prunes nothing.

    ``prune_to_fixpoint`` skips the confirming round after a cut round
    whose cascade finished no parent of a cut node; this runs it.
    """
    original = arena_alphabeta._AlphaBetaArena.prune_to_fixpoint
    steps = []

    def prune_to_fixpoint(arena):
        pruned = original(arena)
        assert arena._sweep() == 0
        steps.append(pruned)
        return pruned

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            arena_alphabeta._AlphaBetaArena, "prune_to_fixpoint",
            prune_to_fixpoint,
        )
        for width in range(4):
            arena_alpha_beta(tree, WidthPolicy(width))
    assert steps


@settings(max_examples=60, deadline=None)
@given(uniform_trees(max_leaves=256).filter(
    lambda tree: tree.kind is TreeKind.MINMAX
))
def test_fixpoint_rule_on_uniform_trees(tree):
    _assert_no_round_after_fixpoint_prunes(tree)


@settings(max_examples=60, deadline=None)
@given(nested_minmax())
def test_fixpoint_rule_on_irregular_trees(spec):
    _assert_no_round_after_fixpoint_prunes(minmax_tree_from_spec(spec))


@settings(max_examples=60, deadline=None)
@given(_tie_heavy_uniform())
def test_fixpoint_rule_on_tie_heavy_and_infinite_leaves(tree):
    _assert_no_round_after_fixpoint_prunes(tree)


@pytest.mark.parametrize("name", sorted(INFINITE_GAIN_TREES))
def test_fixpoint_rule_on_infinite_gain_trees(name):
    _assert_no_round_after_fixpoint_prunes(
        minmax_tree_from_spec(INFINITE_GAIN_TREES[name])
    )


# ---------------------------------------------------------------------------
# the scalar and numpy paths agree where no other backend does
# ---------------------------------------------------------------------------
def _run_record(tree, width):
    rec = InMemoryRecorder()
    result = arena_alpha_beta(
        tree, WidthPolicy(width), keep_batches=True, recorder=rec
    )
    return (
        repr(result.value), result.trace.batches, result.evaluated,
        rec.events,
    )


def _assert_paths_agree(tree):
    """Forced numpy and forced scalar runs are identical, NaN included.

    The object-graph engines keep or drop a NaN by its position, so
    only the arena's own two paths can be compared on NaN leaves; the
    scalar fold must keep a NaN gain as ``np.maximum``/``np.minimum``
    do.
    """
    runs = []
    for threshold in (0, sys.maxsize):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arena_selection, "SCALAR_MAX", threshold)
            runs.append([_run_record(tree, width) for width in range(4)])
    assert runs[0] == runs[1]


@st.composite
def _special_float_uniform(draw):
    branching = draw(st.integers(min_value=1, max_value=4))
    height = draw(st.integers(min_value=0, max_value=7 - branching))
    pool = draw(st.lists(
        st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=4
    ))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    leaves = np.random.default_rng(seed).choice(pool, branching ** height)
    return UniformTree(branching, height, leaves, kind=TreeKind.MINMAX)


@settings(max_examples=60, deadline=None)
@given(_special_float_uniform())
def test_paths_agree_on_nan_and_signed_zero_uniform_trees(tree):
    _assert_paths_agree(tree)


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    st.sampled_from(SPECIAL_FLOATS),
    lambda children: st.lists(children, min_size=1, max_size=3),
    max_leaves=24,
))
def test_paths_agree_on_nan_and_signed_zero_irregular_trees(spec):
    _assert_paths_agree(minmax_tree_from_spec(spec))


# ---------------------------------------------------------------------------
# selection kernels
# ---------------------------------------------------------------------------
def test_select_width_scores_are_pruning_numbers(boolean_tree):
    arrays = canonical_arrays(boolean_tree)
    settled = np.zeros(arrays.n_nodes, dtype=bool)
    budget = np.zeros(arrays.n_nodes, dtype=np.int64)
    width = 2
    leaves = select_width(arrays, settled, width, budget)
    # On a fresh tree the live leaves of pruning number <= w are exactly
    # what the reference policy's first batch evaluates.
    reference = parallel_solve(
        boolean_tree, width, keep_batches=True, backend="rescan"
    )
    index = arrays.index_map()
    expected = sorted(index[n] for n in reference.trace.batches[0])
    assert leaves.tolist() == expected
    scores = width - budget[leaves]
    assert (scores >= 0).all() and (scores <= width).all()


def test_most_urgent_prefix_of_counting_sort():
    leaves = np.arange(6, dtype=np.int64)
    scores = np.array([2, 1, 3, 1, 2, 3], dtype=np.int64)
    # p >= len: everything is selected.
    assert most_urgent(leaves, scores, 3, 10).tolist() == list(range(6))
    # p = 3: both score-1 leaves, then the leftmost score-2 leaf.
    assert most_urgent(leaves, scores, 3, 3).tolist() == [0, 1, 3]
    # p = 1: ties at the cutoff break leftmost-first.
    assert most_urgent(leaves, scores, 3, 1).tolist() == [1]


@pytest.mark.parametrize("parents", [[0], [1], [1, 3], [1, 2, 3]])
def test_children_of_many_gathers_fresh_arrays(parents):
    tree = UniformTree(3, 2, np.arange(9) % 2)
    arrays = canonical_arrays(tree)
    parents_sel = np.asarray(parents, dtype=np.int64)
    # Every selected parent lies on one depth; read the level below it.
    level = arrays.levels[int(arrays.depths[parents_sel[0]]) + 1]
    children, segment = children_of_many(arrays, parents_sel, level)
    expected = [c for v in parents for c in arrays.children_of(v)]
    assert children.tolist() == expected
    assert segment.tolist() == [
        j for j, v in enumerate(parents) for _ in arrays.children_of(v)
    ]
    # Callers may write to the result; it must never alias ``levels``.
    assert not np.shares_memory(children, level)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=40))
def test_live_index_matches_per_segment_rank(values):
    segment = np.sort(np.asarray(values, dtype=np.int64))
    ranks, seen = [], {}
    for v in segment.tolist():
        ranks.append(seen.get(v, 0))
        seen[v] = ranks[-1] + 1
    assert _live_index(segment).tolist() == ranks


# ---------------------------------------------------------------------------
# the resumed width walk: every step equals a walk from the root
# ---------------------------------------------------------------------------
@contextmanager
def _patched_select_width(check):
    """Route the engines' ``select_width`` through ``check``.

    The engines call selection by these module-level names (so does
    the perfbench tracer); ``check(args, leaves)`` sees each call.
    """
    def wrapper(*args):
        leaves = select_width(*args)
        check(args, leaves)
        return leaves

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arena_boolean, "select_width", wrapper)
        patch.setattr(arena_alphabeta, "select_width", wrapper)
        yield


def _assert_resumed_walk_is_fresh(args, leaves):
    arrays, settled, width, budget, walk = args
    assert isinstance(walk, WidthWalk)
    fresh_budget = np.zeros_like(budget)
    fresh = select_width(arrays, settled, width, fresh_budget)
    assert leaves.tolist() == fresh.tolist()
    assert (width - budget[leaves]).tolist() == (
        width - fresh_budget[fresh]
    ).tolist()


def _width_runs(tree):
    """The width-walk engines a tree of this kind runs through."""
    if tree.kind is TreeKind.BOOLEAN:
        for width in range(4):
            yield arena_solve, (tree, WidthPolicy(width)), {}
        for width in (2, 3):
            for procs in (1, 2):
                yield (
                    arena_solve,
                    (tree, WidthPolicy(width, max_processors=procs)), {},
                )
    for width in range(4):
        yield arena_alpha_beta, (tree, WidthPolicy(width)), {}


def _sweep_finishing_every_cut_node(original):
    """Wrap ``_AlphaBetaArena._sweep`` to check what the prune report
    relies on: a node that cuts loses all its open children, so it
    finishes in the same round's cascade, and the walk resumes no
    deeper than that node."""
    def sweep(arena):
        before = arena.pruned.copy()
        count = original(arena)
        doomed = np.flatnonzero(arena.pruned & ~before)
        if doomed.shape[0]:
            cut = arena.arrays.parents[doomed]
            assert arena.finished[cut].all()
            assert arena.walk.resume <= int(arena.arrays.depths[cut].min())
        return count

    return sweep


def _assert_every_step_resumes_exactly(tree):
    sweep = _sweep_finishing_every_cut_node(
        arena_alphabeta._AlphaBetaArena._sweep
    )
    for engine, args, kwargs in _width_runs(tree):
        calls = []

        def check(call_args, leaves):
            _assert_resumed_walk_is_fresh(call_args, leaves)
            calls.append(call_args[-1])

        with _patched_select_width(check), pytest.MonkeyPatch.context() as p:
            p.setattr(arena_alphabeta._AlphaBetaArena, "_sweep", sweep)
            result = engine(*args, **kwargs)
        assert len(calls) == result.num_steps
        # One walk carries the levels through the whole run.
        assert all(walk is calls[0] for walk in calls)


@settings(max_examples=40, deadline=None)
@given(uniform_trees(max_leaves=256))
def test_resumed_walk_equals_fresh_walk_on_uniform_trees(tree):
    _assert_every_step_resumes_exactly(tree)


@settings(max_examples=40, deadline=None)
@given(nested_boolean())
def test_resumed_walk_equals_fresh_walk_on_irregular_boolean(spec):
    _assert_every_step_resumes_exactly(
        boolean_tree_from_spec(spec, gates=[Gate.AND, Gate.OR])
    )


@settings(max_examples=40, deadline=None)
@given(nested_minmax())
def test_resumed_walk_equals_fresh_walk_on_irregular_minmax(spec):
    _assert_every_step_resumes_exactly(minmax_tree_from_spec(spec))


@pytest.mark.parametrize(
    "tree",
    [*DEGENERATE_BOOLEAN.values(), *DEGENERATE_MINMAX.values()],
    ids=[
        *(f"boolean-{n}" for n in DEGENERATE_BOOLEAN),
        *(f"minmax-{n}" for n in DEGENERATE_MINMAX),
    ],
)
def test_resumed_walk_equals_fresh_walk_on_degenerate_trees(tree):
    _assert_every_step_resumes_exactly(tree)


@pytest.mark.parametrize("config", _CONFIGS[::2], ids=["inline", "shm"])
def test_engines_select_through_the_traced_name_once_per_step(config):
    """perfbench times selection by patching these two module names; a
    run that bypassed them would leave its trace without selection."""
    calls = []
    boolean = iid_boolean(3, 4, level_invariant_bias(3), seed=5)
    minmax = iid_minmax(3, 4, seed=5)
    with _patched_select_width(lambda args, leaves: calls.append(args)):
        for width in (0, 2):
            calls.clear()
            result = parallel_solve(boolean, width, **config)
            assert len(calls) == result.num_steps
            calls.clear()
            result = parallel_solve(
                boolean, width + 1, max_processors=2, **config
            )
            assert len(calls) == result.num_steps
            calls.clear()
            result = parallel_alpha_beta(minmax, width, **config)
            assert len(calls) == result.num_steps
