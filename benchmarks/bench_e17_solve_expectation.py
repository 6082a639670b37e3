"""E17 — measured Sequential SOLVE cost vs the exact i.i.d. recurrence."""

import pytest

from repro.analysis import solve_expected_cost
from repro.trees.generators.iid import level_invariant_bias


@pytest.mark.experiment("e17")
def test_registry_gates(spec_gates):
    spec_gates("e17")


@pytest.mark.experiment("e17")
def test_kernel(benchmark):
    benchmark(
        lambda: solve_expected_cost(2, 18, level_invariant_bias(2))
        .expected_cost
    )
