"""E11 — Theorem 4 + Prop 6: node-expansion model linear speed-up."""

import pytest

from repro.core.nodeexpansion import n_parallel_solve
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.mark.experiment("e11")
def test_registry_gates(spec_gates):
    spec_gates("e11")


@pytest.mark.experiment("e11")
def test_kernel(benchmark):
    tree = iid_boolean(2, 13, level_invariant_bias(2), seed=2)
    benchmark(lambda: n_parallel_solve(tree, 1).num_steps)
