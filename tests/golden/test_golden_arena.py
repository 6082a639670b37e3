"""Golden-master replay on the arena backend.

The frozen corpus in ``corpus/manifest.json`` was recorded with the
object-graph frontier engines of the time.  The arena backend promises
bit-compatible observable behaviour, so every backend-capable cell —
team, parallel SOLVE and the alpha-beta pair — must replay to exactly
the same ``val(root)``, step count and total work with
``backend="arena"``, without re-freezing anything.
"""

from __future__ import annotations

import pytest

from repro.serve.engines import run_algorithm

from .test_golden_corpus import ENGINE_PARAMS, MANIFEST, _load_tree

#: Golden engine labels whose serve adapters accept a backend param.
BACKEND_CAPABLE = (
    "team", "parallel", "parallel_w2", "sequential_ab", "parallel_ab",
)

CELLS = [
    pytest.param(entry, engine, id=f"{entry['name']}-{engine}-arena")
    for entry in MANIFEST
    for engine in sorted(entry["expected"])
    if engine in BACKEND_CAPABLE
]


def test_arena_cells_are_populated():
    assert len(CELLS) >= 50  # every backend-capable engine, ~20 trees


@pytest.mark.parametrize("entry,engine", CELLS)
def test_golden_replay_arena(entry, engine):
    tree = _load_tree(entry)
    algo, params = ENGINE_PARAMS[engine]
    value, steps, work = run_algorithm(
        algo, tree, dict(params, backend="arena")
    )
    expected = entry["expected"][engine]
    assert value == expected["value"], (
        f"{entry['name']}/{engine}: arena value drifted"
    )
    assert steps == expected["steps"], (
        f"{entry['name']}/{engine}: arena step count drifted"
    )
    assert work == expected["work"], (
        f"{entry['name']}/{engine}: arena total work drifted"
    )
