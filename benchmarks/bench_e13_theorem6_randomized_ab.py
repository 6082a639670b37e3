"""E13 — Theorem 6: randomized alpha-beta expected speed-up."""

import pytest

from repro.core.randomized import r_parallel_alpha_beta
from repro.trees.generators import iid_minmax


@pytest.mark.experiment("e13")
def test_registry_gates(spec_gates):
    spec_gates("e13")


@pytest.mark.experiment("e13")
def test_kernel(benchmark):
    tree = iid_minmax(2, 9, seed=12)
    benchmark(lambda: r_parallel_alpha_beta(tree, 1, seed=0).num_steps)
