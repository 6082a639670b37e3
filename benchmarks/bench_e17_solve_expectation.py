"""E17 — measured Sequential SOLVE cost vs the exact i.i.d. recurrence."""

import pytest

from repro.analysis import solve_expected_cost
from repro.bench import run_experiment
from repro.trees.generators.iid import level_invariant_bias


@pytest.fixture(scope="module")
def table():
    return run_experiment("e17")


@pytest.mark.experiment("e17")
def test_measured_matches_expectation(table, benchmark):
    # Sampling means stay within 20% of the closed form everywhere.
    for ratio in table.column("ratio"):
        assert 0.8 <= ratio <= 1.2

    benchmark(
        lambda: solve_expected_cost(2, 18, level_invariant_bias(2))
        .expected_cost
    )
    print("\n" + table.render())


@pytest.mark.experiment("e17")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
