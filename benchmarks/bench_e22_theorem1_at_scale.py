"""E22 — Theorem 1 on million-leaf instances via the fast path."""

import pytest

from repro.core.fastpath import uniform_sequential_cost
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.mark.experiment("e22")
def test_registry_gates(spec_gates):
    spec_gates("e22")


@pytest.mark.experiment("e22")
def test_kernel(benchmark):
    tree = iid_boolean(2, 20, level_invariant_bias(2), seed=5)
    benchmark(lambda: uniform_sequential_cost(tree)[1])
