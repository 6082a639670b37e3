"""Unit tests for the columnar arena engines and selection kernels."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import (
    arena_parallel_solve,
    arena_saturation_solve,
    arena_team_solve,
    parallel_solve,
    saturation_solve,
    team_solve,
)
from repro.core.alphabeta import (
    parallel_alpha_beta,
    sequential_alpha_beta,
)
from repro.core.arena import arena_alpha_beta
from repro.core.arena import most_urgent, select_width
from repro.core.arena.selection import children_of_many
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
def test_pure_engines_match_incremental(boolean_tree):
    for width in (0, 1, 3):
        arena = arena_parallel_solve(
            boolean_tree, width, keep_batches=True
        )
        reference = parallel_solve(
            boolean_tree, width, keep_batches=True, backend="incremental"
        )
        assert _signature(arena) == _signature(reference)
        assert arena.evaluated == reference.evaluated


def test_bounded_single_processor(boolean_tree):
    arena = arena_parallel_solve(
        boolean_tree, 2, max_processors=1, keep_batches=True
    )
    reference = parallel_solve(
        boolean_tree, 2, max_processors=1, keep_batches=True,
        backend="incremental",
    )
    assert _signature(arena) == _signature(reference)
    assert all(len(batch) == 1 for batch in arena.trace.batches)


def test_team_and_saturation(boolean_tree):
    for procs in (1, 3):
        arena = arena_team_solve(boolean_tree, procs, keep_batches=True)
        reference = team_solve(
            boolean_tree, procs, keep_batches=True, backend="incremental"
        )
        assert _signature(arena) == _signature(reference)
    arena = arena_saturation_solve(boolean_tree, keep_batches=True)
    reference = saturation_solve(
        boolean_tree, keep_batches=True, backend="incremental"
    )
    assert _signature(arena) == _signature(reference)


def test_alpha_beta_widths(minmax_tree):
    for width in (0, 1, 2):
        arena = arena_alpha_beta(minmax_tree, width, keep_batches=True)
        reference = parallel_alpha_beta(
            minmax_tree, width, keep_batches=True, backend="incremental"
        )
        assert _signature(arena) == _signature(reference)
        assert arena.evaluated == reference.evaluated


def test_alpha_beta_width0_is_sequential(minmax_tree):
    arena = sequential_alpha_beta(minmax_tree, backend="arena")
    reference = sequential_alpha_beta(minmax_tree, backend="incremental")
    assert arena.value == reference.value
    assert arena.num_steps == reference.num_steps


def test_max_steps_enforced(boolean_tree):
    with pytest.raises(ModelViolationError):
        arena_parallel_solve(boolean_tree, 0, max_steps=2)


def test_boolean_engine_rejects_minmax(minmax_tree):
    with pytest.raises(TreeStructureError):
        arena_parallel_solve(minmax_tree, 1)


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
    # observes, so the hook needs rescan or incremental.
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


def test_recorder_streams_match_modulo_frontier_counters(boolean_tree):
    arena_rec = InMemoryRecorder()
    arena_parallel_solve(boolean_tree, 2, recorder=arena_rec)
    incr_rec = InMemoryRecorder()
    parallel_solve(
        boolean_tree, 2, backend="incremental", recorder=incr_rec
    )
    incr_events = [
        e for e in incr_rec.events
        if not e.name.startswith("frontier.")
    ]
    assert arena_rec.events == incr_events


def test_alpha_beta_recorder_has_pruned_spans(minmax_tree):
    rec = InMemoryRecorder()
    arena_alpha_beta(minmax_tree, 1, recorder=rec)
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
        arena = arena_parallel_solve(tree, width, keep_batches=True)
        reference = parallel_solve(
            tree, width, keep_batches=True, backend="incremental"
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


def _events(recorder):
    return [e for e in recorder.events if not e.name.startswith("frontier.")]


def _thread_factory(spec, oracle):
    """In-process stand-in for the shm worker pool: same initializer,
    same shared-memory reads and writes, no fork cost."""
    return ThreadPoolExecutor(
        max_workers=2, initializer=_worker_init, initargs=(spec, oracle)
    )


#: Each backend/executor the degenerate corpus runs through.
_CONFIGS = (
    {"backend": "arena"},
    {"backend": "incremental"},
    {
        "backend": "arena", "executor": "shm",
        "shm_options": ShmOptions(
            workers=2, executor_factory=_thread_factory
        ),
    },
)


def _assert_backends_agree(engine, *args):
    """Arena, incremental and arena over shm: same batches, accounting
    and logical-clock telemetry."""
    runs = []
    for config in _CONFIGS:
        rec = InMemoryRecorder()
        result = engine(*args, keep_batches=True, recorder=rec, **config)
        runs.append((
            _signature(result), result.evaluated, result.num_steps,
            _events(rec),
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
        boolean_tree, width, keep_batches=True, backend="incremental"
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
