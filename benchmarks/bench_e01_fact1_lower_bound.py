"""E1 — Fact 1: inherent lower bound on total work for B(d, n)."""

import pytest

from repro.core import sequential_solve
from repro.trees.generators import forced_value_instance


@pytest.mark.experiment("e01")
def test_registry_gates(spec_gates):
    spec_gates("e01")


@pytest.mark.experiment("e01")
def test_kernel(benchmark):
    tree = forced_value_instance(2, 14, 0)
    benchmark(lambda: sequential_solve(tree).total_work)
