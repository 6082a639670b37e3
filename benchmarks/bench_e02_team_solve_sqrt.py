"""E2 — Proposition 1: Team SOLVE speed-up is Theta(sqrt(p))."""

import pytest

from repro.bench import run_experiment
from repro.core import team_solve
from repro.trees.generators import all_ones


@pytest.fixture(scope="module")
def table():
    return run_experiment("e02")


@pytest.mark.experiment("e02")
def test_team_speedup_tracks_sqrt_p(table, benchmark):
    ratios = table.column("hard ratio/sqrt(p)")
    # Theta(sqrt(p)): the speed-up divided by sqrt(p) stays within
    # constant bounds on the hard family (away from saturation).
    for ratio in ratios[:-1]:
        assert 0.3 <= ratio <= 3.0
    # Monotone: more processors never slow the team down.
    speedups = table.column("hard speed-up")
    assert all(b >= a * 0.999 for a, b in zip(speedups, speedups[1:]))
    # And the speed-up is far from linear: at p = 256 it is well below
    # p/4 on the hard instance.
    p_values = table.column("p")
    final = speedups[p_values.index(256)]
    assert final < 256 / 4

    tree = all_ones(2, 16)
    benchmark(lambda: team_solve(tree, 64).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e02")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
