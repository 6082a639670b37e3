"""The engine × backend × executor support matrix, pinned loudly.

Every solver entry point accepts ``backend=`` (and most now
``executor=``); the combinations that cannot work must be rejected at
entry time with a typed
:class:`~repro.errors.BackendUnsupportedError` naming the engine and
the offending pair — never a silent fallback, and never a bare
``ValueError`` that callers cannot distinguish from a typo.  This
suite walks the full matrix: every supported cell runs, every
unsupported cell raises with the right attributes, and the default
backend resolves where :func:`~repro.core.parallel_solve.dispatch`
says it does.
"""

from __future__ import annotations

import importlib

import pytest

from repro.core import parallel_solve, saturation_solve, team_solve
from repro.core.alphabeta import (
    parallel_alpha_beta,
    sequential_alpha_beta,
)
from repro.core.nodeexpansion import n_parallel_solve
from repro.core.parallel_solve import BACKENDS, EXECUTORS
from repro.core.shm import ArenaSegments, ShmOptions
from repro.errors import (
    BackendUnsupportedError,
    ReproError,
    TreeStructureError,
)
from repro.telemetry import InMemoryRecorder
from repro.trees import ExplicitTree
from repro.trees.lazy import LazyTree
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import iid_minmax, level_invariant_bias
from repro.types import TreeKind

#: The module, which ``repro.core.parallel_solve`` (the function) hides.
parallel_solve_module = importlib.import_module("repro.core.parallel_solve")

#: (label, callable(tree, backend, executor)) per Boolean engine.
BOOLEAN_ENGINES = [
    (
        "parallel-solve",
        lambda t, b, e: parallel_solve(t, 1, backend=b, executor=e),
    ),
    (
        "saturation-solve",
        lambda t, b, e: saturation_solve(t, backend=b, executor=e),
    ),
    (
        "team-solve",
        lambda t, b, e: team_solve(t, 2, backend=b, executor=e),
    ),
]

MINMAX_ENGINES = [
    (
        "sequential-alpha-beta",
        lambda t, b, e: sequential_alpha_beta(t, backend=b, executor=e),
    ),
    (
        "parallel-alpha-beta",
        lambda t, b, e: parallel_alpha_beta(t, 1, backend=b, executor=e),
    ),
]

ALL_ENGINES = BOOLEAN_ENGINES + MINMAX_ENGINES


@pytest.fixture(scope="module")
def boolean_tree():
    return iid_boolean(3, 4, level_invariant_bias(3), seed=5)


@pytest.fixture(scope="module")
def minmax_tree():
    return iid_minmax(3, 4, seed=5)


def _tree_for(label, boolean_tree, minmax_tree):
    return (
        minmax_tree if "alpha-beta" in label else boolean_tree
    )


class TestSupportedCells:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("label,run", ALL_ENGINES)
    def test_inline_runs_on_every_backend(
        self, label, run, backend, boolean_tree, minmax_tree
    ):
        tree = _tree_for(label, boolean_tree, minmax_tree)
        result = run(tree, backend, "inline")
        assert result.num_steps >= 1

    @pytest.mark.parametrize("label,run", ALL_ENGINES)
    def test_shm_runs_on_arena(
        self, label, run, boolean_tree, minmax_tree
    ):
        tree = _tree_for(label, boolean_tree, minmax_tree)
        inline = run(tree, "arena", "inline")
        shm = run(tree, "arena", "shm")
        assert (shm.value, shm.num_steps, shm.total_work) == (
            inline.value, inline.num_steps, inline.total_work
        )


class TestRejectedCells:
    @pytest.mark.parametrize("backend", ("rescan",))
    @pytest.mark.parametrize("label,run", ALL_ENGINES)
    def test_shm_rejected_off_arena(
        self, label, run, backend, boolean_tree, minmax_tree
    ):
        tree = _tree_for(label, boolean_tree, minmax_tree)
        with pytest.raises(BackendUnsupportedError) as exc_info:
            run(tree, backend, "shm")
        err = exc_info.value
        assert err.engine == label
        assert err.backend == backend
        assert err.executor == "shm"
        assert label in str(err) and backend in str(err)

    def test_n_parallel_solve_rejects_arena(self, boolean_tree):
        with pytest.raises(
            BackendUnsupportedError, match="no arena backend"
        ) as exc_info:
            n_parallel_solve(boolean_tree, 1, backend="arena")
        err = exc_info.value
        assert err.engine == "n-parallel-solve"
        assert err.backend == "arena"
        assert err.executor is None

    def test_n_parallel_solve_rejection_is_a_value_error(
        self, boolean_tree
    ):
        # Pre-typed-hierarchy callers caught ValueError; both the
        # class relationship and the message substring are contract.
        with pytest.raises(ValueError, match="no arena backend"):
            n_parallel_solve(boolean_tree, 1, backend="arena")

    @pytest.mark.parametrize(
        "engine,run",
        [
            (
                "parallel-solve",
                lambda t, hook: parallel_solve(
                    t, 1, backend="arena", executor="shm", on_step=hook
                ),
            ),
            (
                "parallel-alpha-beta",
                lambda t, hook: parallel_alpha_beta(
                    t, 1, backend="arena", executor="shm", on_step=hook
                ),
            ),
        ],
    )
    def test_on_step_conflicts_with_shm(
        self, engine, run, boolean_tree, minmax_tree
    ):
        tree = _tree_for(engine, boolean_tree, minmax_tree)
        hook_calls = []
        with pytest.raises(BackendUnsupportedError) as exc_info:
            run(tree, lambda *a: hook_calls.append(a))
        assert exc_info.value.engine == engine
        assert not hook_calls


#: Every (backend, executor) cell an engine can run on.
SUPPORTED_CELLS = [
    (backend, executor)
    for backend in BACKENDS
    for executor in EXECUTORS
    if executor == "inline" or backend == "arena"
]


@pytest.fixture
def publish_calls(monkeypatch):
    """Records every ArenaSegments.publish, i.e. every shm session."""
    calls = []
    original = ArenaSegments.publish

    def spy(arrays):
        calls.append(arrays)
        return original(arrays)

    monkeypatch.setattr(ArenaSegments, "publish", staticmethod(spy))
    return calls


class TestTreeKind:
    """Boolean engines reject MIN/MAX trees before step 0, everywhere."""

    @pytest.mark.parametrize("backend,executor", SUPPORTED_CELLS)
    @pytest.mark.parametrize("label,run", BOOLEAN_ENGINES)
    @pytest.mark.parametrize("height", [0, 4])
    def test_boolean_engine_rejects_minmax_tree(
        self, label, run, backend, executor, height, minmax_tree,
        publish_calls,
    ):
        tree = (
            ExplicitTree([[]], {0: 1.0}, kind=TreeKind.MINMAX)
            if height == 0 else minmax_tree
        )
        with pytest.raises(TreeStructureError, match=label):
            run(tree, backend, executor)
        assert publish_calls == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rejection_precedes_any_step(self, backend, minmax_tree):
        rec = InMemoryRecorder()
        with pytest.raises(TreeStructureError):
            parallel_solve(minmax_tree, 1, backend=backend, recorder=rec)
        assert rec.events == []


#: (label, tree fixture, call(tree, **backend_kwargs)) — an invalid
#: input per shm-capable engine (Sequential alpha-beta takes no
#: argument that can be invalid).
INVALID_INPUTS = [
    (
        "parallel-solve-width",
        "boolean_tree",
        lambda t, **kw: parallel_solve(t, -1, **kw),
    ),
    (
        "parallel-solve-processors",
        "boolean_tree",
        lambda t, **kw: parallel_solve(t, 1, max_processors=0, **kw),
    ),
    (
        "parallel-solve-minmax",
        "minmax_tree",
        lambda t, **kw: parallel_solve(t, 1, **kw),
    ),
    (
        "saturation-solve-minmax",
        "minmax_tree",
        lambda t, **kw: saturation_solve(t, **kw),
    ),
    (
        "team-solve-processors",
        "boolean_tree",
        lambda t, **kw: team_solve(t, 0, **kw),
    ),
    (
        "team-solve-minmax",
        "minmax_tree",
        lambda t, **kw: team_solve(t, 2, **kw),
    ),
    (
        "parallel-alpha-beta-width",
        "minmax_tree",
        lambda t, **kw: parallel_alpha_beta(t, -1, **kw),
    ),
]


@pytest.mark.parametrize(
    "label,tree_fixture,run", INVALID_INPUTS,
    ids=[label for label, _, _ in INVALID_INPUTS],
)
def test_shm_rejects_bad_input_before_publishing(
    label, tree_fixture, run, request, publish_calls
):
    tree = request.getfixturevalue(tree_fixture)
    with pytest.raises(Exception) as inline:
        run(tree, backend="arena")
    with pytest.raises(Exception) as shm:
        run(tree, backend="arena", executor="shm")
    assert type(shm.value) is type(inline.value)
    assert str(shm.value) == str(inline.value)
    assert publish_calls == []


class TestDefaultBackend:
    """``backend=None``: the arena for a bounded machine without an
    ``on_step`` hook, rescan for every other run, and a named backend
    always honoured."""

    @pytest.fixture
    def routes(self, monkeypatch):
        """Records which of parallel SOLVE's loops each call runs."""
        taken = []
        route = parallel_solve_module._PARALLEL_SOLVE

        def spy(name, run):
            def wrapper(*args, **kwargs):
                taken.append(name)
                return run(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            parallel_solve_module, "_PARALLEL_SOLVE",
            route._replace(
                run=spy("rescan", route.run),
                arena=spy("arena", route.arena),
            ),
        )
        return taken

    @pytest.mark.parametrize("width,procs", [(1, 1), (2, 3), (4, 2)])
    def test_bounded_default_runs_on_the_arena_like_rescan(
        self, width, procs, boolean_tree, routes
    ):
        default = parallel_solve(
            boolean_tree, width, max_processors=procs, keep_batches=True
        )
        rescan = parallel_solve(
            boolean_tree, width, max_processors=procs, keep_batches=True,
            backend="rescan",
        )
        assert routes == ["arena", "rescan"]
        assert default.trace.batches == rescan.trace.batches
        assert default.evaluated == rescan.evaluated
        assert default.num_steps == rescan.num_steps
        assert default.value == rescan.value

    def test_unbounded_default_is_rescan(self, boolean_tree, routes):
        parallel_solve(boolean_tree, 2)
        assert routes == ["rescan"]

    def test_on_step_with_max_processors_resolves_to_rescan(
        self, boolean_tree, routes
    ):
        steps = []
        result = parallel_solve(
            boolean_tree, 2, max_processors=2,
            on_step=lambda state, step, batch: steps.append(step),
        )
        assert routes == ["rescan"]
        assert steps == list(range(result.num_steps))

    def test_bounded_default_on_a_lazy_tree_is_rescan(self, routes):
        # Lowering would expand every node; rescan expands only what
        # the run reaches.
        def lazy():
            return LazyTree(
                [[0, 1, [1, 0]], [1, [0, 0]], 0],
                lambda payload, depth: (
                    ("internal", payload) if isinstance(payload, list)
                    else ("leaf", payload)
                ),
            )

        default_tree, rescan_tree = lazy(), lazy()
        default = parallel_solve(
            default_tree, 1, max_processors=1, keep_batches=True
        )
        rescan = parallel_solve(
            rescan_tree, 1, max_processors=1, keep_batches=True,
            backend="rescan",
        )
        assert routes == ["rescan", "rescan"]
        assert default.trace.batches == rescan.trace.batches
        assert default_tree.expansions == rescan_tree.expansions

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("procs", [None, 2])
    def test_named_backend_is_honoured(
        self, backend, procs, boolean_tree, routes
    ):
        parallel_solve(boolean_tree, 2, max_processors=procs, backend=backend)
        assert routes == [backend]

    def test_backends_are_rescan_and_arena(self):
        assert BACKENDS == ("rescan", "arena")

    @pytest.mark.parametrize("label,run", ALL_ENGINES)
    def test_incremental_is_unknown(
        self, label, run, boolean_tree, minmax_tree
    ):
        tree = _tree_for(label, boolean_tree, minmax_tree)
        with pytest.raises(
            ValueError, match=r"expected one of \('rescan', 'arena'\)"
        ):
            run(tree, "incremental", "inline")

    def test_n_parallel_solve_rejects_incremental(self, boolean_tree):
        with pytest.raises(ValueError, match="unknown backend"):
            n_parallel_solve(boolean_tree, 1, backend="incremental")


class TestErrorShape:
    def test_is_repro_and_value_error(self):
        err = BackendUnsupportedError(
            "nope", engine="e", backend="b", executor="x"
        )
        assert isinstance(err, ReproError)
        assert isinstance(err, ValueError)
        assert (err.engine, err.backend, err.executor) == ("e", "b", "x")

    @pytest.mark.parametrize("label,run", ALL_ENGINES)
    def test_unknown_backend_still_plain_value_error(
        self, label, run, boolean_tree, minmax_tree
    ):
        tree = _tree_for(label, boolean_tree, minmax_tree)
        with pytest.raises(ValueError, match="unknown backend"):
            run(tree, "bogus", "inline")

    @pytest.mark.parametrize("label,run", ALL_ENGINES)
    def test_unknown_executor_still_plain_value_error(
        self, label, run, boolean_tree, minmax_tree
    ):
        tree = _tree_for(label, boolean_tree, minmax_tree)
        with pytest.raises(ValueError, match="unknown executor"):
            run(tree, "arena", "bogus")


def test_shm_options_threading(boolean_tree):
    """shm_options reaches the pool (observable via run stats)."""
    result = parallel_solve(
        boolean_tree, 1, backend="arena", executor="shm",
        shm_options=ShmOptions(workers=2, chunk_size=1),
    )
    # chunk_size=1 means one chunk per leaf evaluated.
    assert result.stats.chunks == result.stats.units == result.total_work
