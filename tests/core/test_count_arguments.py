"""Width and processor-count arguments get one check on every backend.

A non-integer count used to mean something different on each backend
(rounded up by one walk, a ``TypeError`` from another, a third answer
from the arena).  Every width/processor argument now goes through
:func:`repro.core.policies.check_count`: non-integers raise
``ValueError`` before any work — on the shm executor, before any
segment is published — and integer-like NumPy scalars are accepted.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import parallel_solve, team_solve
from repro.core.alphabeta import parallel_alpha_beta
from repro.core.nodeexpansion import n_parallel_alpha_beta, n_parallel_solve
from repro.trees.generators import iid_boolean, iid_minmax

SHM_DIR = "/dev/shm"

#: Every (backend, executor) cell of the leaf-evaluation engines.
CELLS = [
    ("rescan", "inline"),
    (None, "inline"),
    ("arena", "inline"),
    ("arena", "shm"),
]

#: (label, run(tree, count, backend, executor), tree kind, range message).
ENGINES = [
    (
        "team-processors",
        lambda t, c, b, e: team_solve(t, c, backend=b, executor=e),
        "boolean", "Team SOLVE needs at least one processor",
    ),
    (
        "parallel-max-processors",
        lambda t, c, b, e: parallel_solve(
            t, 1, max_processors=c, backend=b, executor=e
        ),
        "boolean", "need at least one processor",
    ),
    (
        "parallel-width",
        lambda t, c, b, e: parallel_solve(t, c, backend=b, executor=e),
        "boolean", "width must be >= 0",
    ),
    (
        "alpha-beta-width",
        lambda t, c, b, e: parallel_alpha_beta(
            t, c, backend=b, executor=e
        ),
        "minmax", "width must be >= 0",
    ),
]


@pytest.fixture(scope="module")
def trees():
    return {
        "boolean": iid_boolean(3, 4, 0.5, 2),
        "minmax": iid_minmax(3, 4, seed=2),
    }


def _dev_shm_entries() -> set:
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-tmpfs CI
        return set()
    return {f for f in os.listdir(SHM_DIR) if f.startswith("repro_")}


@pytest.mark.parametrize("backend,executor", CELLS)
@pytest.mark.parametrize("label,run,kind,message", ENGINES)
@pytest.mark.parametrize("count", [2.5, 1.0, "2"])
def test_non_integer_count_rejected_everywhere(
    label, run, kind, message, backend, executor, count, trees
):
    before = _dev_shm_entries()
    with pytest.raises(ValueError, match=message) as exc_info:
        run(trees[kind], count, backend, executor)
    assert "non-integer" in str(exc_info.value)
    assert _dev_shm_entries() == before


@pytest.mark.parametrize("backend,executor", CELLS)
@pytest.mark.parametrize("label,run,kind,message", ENGINES)
def test_out_of_range_message_unchanged(
    label, run, kind, message, backend, executor, trees
):
    with pytest.raises(ValueError) as exc_info:
        run(trees[kind], -1, backend, executor)
    assert str(exc_info.value) == message


@pytest.mark.parametrize("backend,executor", CELLS)
@pytest.mark.parametrize("label,run,kind,message", ENGINES)
def test_numpy_integer_count_matches_int(
    label, run, kind, message, backend, executor, trees
):
    tree = trees[kind]
    native = run(tree, 2, backend, executor)
    numpy = run(tree, np.int64(2), backend, executor)
    assert (numpy.value, numpy.trace.degrees) == (
        native.value, native.trace.degrees
    )


@pytest.mark.parametrize("backend", ["rescan", None])
def test_node_expansion_width_checked(backend, trees):
    with pytest.raises(ValueError, match="width must be >= 0"):
        n_parallel_solve(trees["boolean"], 1.5, backend=backend)
    assert (
        n_parallel_solve(trees["boolean"], np.int64(1), backend=backend)
        .trace.degrees
        == n_parallel_solve(trees["boolean"], 1, backend=backend)
        .trace.degrees
    )


def test_node_expansion_alpha_beta_width_checked(trees):
    with pytest.raises(ValueError, match="width must be >= 0"):
        n_parallel_alpha_beta(trees["minmax"], 1.5)
    assert (
        n_parallel_alpha_beta(trees["minmax"], np.int64(1)).trace.degrees
        == n_parallel_alpha_beta(trees["minmax"], 1).trace.degrees
    )
