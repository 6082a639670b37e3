"""E3 — Theorem 1 + Corollary 1: linear speed-up of width-1 SOLVE."""

import pytest

from repro.core import parallel_solve
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.mark.experiment("e03")
@pytest.mark.parametrize("name", ["e03", "e03b"])
def test_registry_gates(spec_gates, name):
    spec_gates(name)


@pytest.mark.experiment("e03")
def test_kernel(benchmark):
    tree = iid_boolean(2, 14, level_invariant_bias(2), seed=1)
    benchmark(lambda: parallel_solve(tree, 1).num_steps)
