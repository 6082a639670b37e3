"""E12 — Theorem 5: randomized SOLVE's expected linear speed-up."""

import pytest

from repro.core.randomized import r_parallel_solve
from repro.trees.generators import sequential_worst_case


@pytest.mark.experiment("e12")
def test_registry_gates(spec_gates):
    spec_gates("e12")


@pytest.mark.experiment("e12")
def test_kernel(benchmark):
    tree = sequential_worst_case(2, 10)
    benchmark(lambda: r_parallel_solve(tree, 1, seed=0).num_steps)
