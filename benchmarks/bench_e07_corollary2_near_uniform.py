"""E7 — Corollary 2: near-uniform trees keep the linear speed-up."""

import pytest

from repro.core import parallel_solve
from repro.trees.generators import near_uniform_boolean


@pytest.mark.experiment("e07")
def test_registry_gates(spec_gates):
    spec_gates("e07")


@pytest.mark.experiment("e07")
def test_kernel(benchmark):
    tree = near_uniform_boolean(4, 12, 0.5, 0.6, p=0.3, seed=9)
    benchmark(lambda: parallel_solve(tree, 1).num_steps)
