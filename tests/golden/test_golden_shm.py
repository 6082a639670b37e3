"""Golden-master replay through the shared-memory executor.

Every backend-capable cell of the frozen corpus — team, parallel
SOLVE and the alpha-beta pair over all 20 trees — must replay to
exactly the frozen ``val(root)``, step count and total work with
``backend="arena", executor="shm"``, with real OS worker processes
evaluating the leaf batches.  Nothing is re-frozen: the shm executor
answers to the same manifest the serial engines froze.

The crash test is the fault-tolerance half of the contract: a worker
killed mid-step (a real ``os._exit``, not a raised exception) must be
absorbed by the runtime's retry/rebuild machinery and still produce
the exact fault-free frozen values.
"""

from __future__ import annotations

import os

import pytest

from repro.core import WidthPolicy
from repro.core.shm import ShmOptions, ShmSession
from repro.serve.engines import run_algorithm

from .test_golden_corpus import ENGINE_PARAMS, MANIFEST, _load_tree

#: Golden engine labels whose serve adapters accept backend/executor.
BACKEND_CAPABLE = (
    "team", "parallel", "parallel_w2", "sequential_ab", "parallel_ab",
)

CELLS = [
    pytest.param(entry, engine, id=f"{entry['name']}-{engine}-shm")
    for entry in MANIFEST
    for engine in sorted(entry["expected"])
    if engine in BACKEND_CAPABLE
]


def test_shm_cells_are_populated():
    assert len(CELLS) >= 50  # every backend-capable engine, ~20 trees


@pytest.mark.parametrize("entry,engine", CELLS)
def test_golden_replay_shm(entry, engine):
    tree = _load_tree(entry)
    algo, params = ENGINE_PARAMS[engine]
    value, steps, work = run_algorithm(
        algo, tree, dict(params, backend="arena", executor="shm")
    )
    expected = entry["expected"][engine]
    assert value == expected["value"], (
        f"{entry['name']}/{engine}: shm value drifted"
    )
    assert steps == expected["steps"], (
        f"{entry['name']}/{engine}: shm step count drifted"
    )
    assert work == expected["work"], (
        f"{entry['name']}/{engine}: shm total work drifted"
    )


class _CrashOnce:
    """Kills the evaluating worker process once, then behaves."""

    def __init__(self, marker: str) -> None:
        self.marker = marker

    def __call__(self, value: float, index: int) -> float:
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write("crashed")
            os._exit(1)
        return value


#: Boolean corpus entries (the crash test drives parallel SOLVE).
_BOOLEAN = [e for e in MANIFEST if "parallel" in e["expected"]]


@pytest.mark.parametrize(
    "name", [_BOOLEAN[0]["name"], _BOOLEAN[-1]["name"]]
)
def test_crash_mid_step_recovers_frozen_value(name, tmp_path):
    """A worker death mid-step changes nothing observable: after the
    retry (and pool rebuild) the run ends on the frozen values."""
    entry = next(e for e in MANIFEST if e["name"] == name)
    tree = _load_tree(entry)
    expected = entry["expected"]["parallel"]
    oracle = _CrashOnce(str(tmp_path / f"{name}-marker"))
    with ShmSession(
        tree,
        ShmOptions(workers=2, oracle=oracle, backoff_seconds=0.01),
    ) as session:
        result = session.solve(WidthPolicy(1))
        assert session.pool.stats.pool_restarts >= 1, (
            "the crash was supposed to break the pool"
        )
    assert float(result.value) == expected["value"]
    assert result.num_steps == expected["steps"]
    assert result.total_work == expected["work"]
