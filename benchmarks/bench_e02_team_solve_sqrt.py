"""E2 — Proposition 1: Team SOLVE speed-up is Theta(sqrt(p))."""

import pytest

from repro.core import team_solve
from repro.trees.generators import all_ones


@pytest.mark.experiment("e02")
def test_registry_gates(spec_gates):
    spec_gates("e02")


@pytest.mark.experiment("e02")
def test_kernel(benchmark):
    tree = all_ones(2, 16)
    benchmark(lambda: team_solve(tree, 64).num_steps)
