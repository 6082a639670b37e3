"""E21 — the Section 8 open problem, measured."""

import pytest

from repro.core import parallel_solve
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.mark.experiment("e21")
def test_registry_gates(spec_gates):
    spec_gates("e21")


@pytest.mark.experiment("e21")
def test_kernel(benchmark):
    tree = iid_boolean(2, 12, level_invariant_bias(2), seed=9)
    benchmark(lambda: parallel_solve(tree, 2).num_steps)
