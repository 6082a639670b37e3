"""One policy object per solver call, on every backend and executor.

:func:`~repro.core.parallel_solve.dispatch` builds the engine's
selection policy once and hands that object to whichever path runs:
the object-graph step loop (rescan), the inline arena loop, or a
shared-memory session.  The policy is the only reader of the engine's
arguments, and a path that selects nothing names it in the error, as
rescan does.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core import parallel_solve, saturation_solve, team_solve
from repro.core.alphabeta import parallel_alpha_beta, sequential_alpha_beta
from repro.core.arena import alphabeta as arena_alphabeta
from repro.core.arena import boolean as arena_boolean
from repro.core.shm import ShmOptions, ShmSession
from repro.errors import ModelViolationError
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import iid_minmax, level_invariant_bias

#: The modules, which the functions of the same name hide.
parallel_solve_module = importlib.import_module("repro.core.parallel_solve")
team_solve_module = importlib.import_module("repro.core.team_solve")
alphabeta_module = importlib.import_module("repro.core.alphabeta.parallel")
policies_module = importlib.import_module("repro.core.policies")

#: (label, route module, route attribute, run(tree, **kw), tree kind).
ROUTED = [
    (
        "parallel", parallel_solve_module, "_PARALLEL_SOLVE",
        lambda t, **kw: parallel_solve(t, 2, **kw), "boolean",
    ),
    (
        "bounded", parallel_solve_module, "_PARALLEL_SOLVE",
        lambda t, **kw: parallel_solve(t, 2, max_processors=2, **kw),
        "boolean",
    ),
    (
        "team", team_solve_module, "_TEAM_SOLVE",
        lambda t, **kw: team_solve(t, 2, **kw), "boolean",
    ),
    (
        "saturation", parallel_solve_module, "_SATURATION_SOLVE",
        lambda t, **kw: saturation_solve(t, **kw), "boolean",
    ),
    (
        "sequential-alpha-beta", alphabeta_module, "_SEQUENTIAL_ALPHA_BETA",
        lambda t, **kw: sequential_alpha_beta(t, **kw), "minmax",
    ),
    (
        "parallel-alpha-beta", alphabeta_module, "_PARALLEL_ALPHA_BETA",
        lambda t, **kw: parallel_alpha_beta(t, 2, **kw), "minmax",
    ),
]

#: (backend, executor, the path that runs there).
PATHS = [
    ("rescan", "inline", "run"),
    ("arena", "inline", "arena"),
    ("arena", "shm", "session"),
]

SHM = ShmOptions(workers=2)


@pytest.fixture(scope="module")
def trees():
    return {
        "boolean": iid_boolean(3, 3, level_invariant_bias(3), seed=5),
        "minmax": iid_minmax(3, 3, seed=5),
    }


@pytest.mark.parametrize(
    "label,module,attr,run,kind", ROUTED, ids=[r[0] for r in ROUTED]
)
def test_every_path_receives_the_policy_dispatch_built(
    label, module, attr, run, kind, trees, monkeypatch
):
    route = getattr(module, attr)
    built, received = [], []

    def policy(*args, **params):
        built.append(route.policy(*args, **params))
        return built[-1]

    def spy(path, loop):
        def wrapper(owner, chosen, **kwargs):
            # ``owner``: the tree, or the session for its methods.
            received.append((path, chosen))
            return loop(owner, chosen, **kwargs)
        return wrapper

    monkeypatch.setattr(module, attr, route._replace(
        policy=policy,
        run=spy("run", route.run),
        arena=spy("arena", route.arena),
    ))
    monkeypatch.setattr(
        ShmSession, route.session,
        spy("session", getattr(ShmSession, route.session)),
    )
    tree = trees[kind]
    for backend, executor, path in PATHS:
        built.clear()
        received.clear()
        run(tree, backend=backend, executor=executor, shm_options=SHM)
        assert len(built) == 1, path
        assert [name for name, _ in received] == [path]
        assert received[0][1] is built[0], path


def _select_nothing(monkeypatch):
    """Make every selection kernel, object-graph and arena, select
    nothing."""
    empty = np.empty(0, dtype=np.int64)
    monkeypatch.setattr(policies_module, "budgeted_walk", lambda *a: [])
    monkeypatch.setattr(policies_module, "leftmost_walk", lambda *a: [])
    for module, attr in [
        (arena_boolean, "select_width"),
        (arena_boolean, "select_frontier"),
        (arena_alphabeta, "select_width"),
    ]:
        monkeypatch.setattr(module, attr, lambda *a: empty)


@pytest.mark.parametrize(
    "label,module,attr,run,kind", ROUTED, ids=[r[0] for r in ROUTED]
)
def test_empty_batch_names_the_policy_on_every_path(
    label, module, attr, run, kind, trees, monkeypatch
):
    route = getattr(module, attr)
    built = []

    def policy(*args, **params):
        built.append(route.policy(*args, **params))
        return built[-1]

    monkeypatch.setattr(module, attr, route._replace(policy=policy))
    _select_nothing(monkeypatch)
    messages = []
    for backend, executor, _path in PATHS:
        with pytest.raises(ModelViolationError) as exc_info:
            run(
                trees[kind], backend=backend, executor=executor,
                shm_options=SHM,
            )
        assert repr(built[-1].name) in str(exc_info.value)
        messages.append(str(exc_info.value))
    assert messages == [messages[0]] * len(PATHS)
