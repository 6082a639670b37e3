"""E12 — Theorem 5: randomized SOLVE's expected linear speed-up."""

import pytest

from repro.bench import run_experiment
from repro.core.randomized import r_parallel_solve
from repro.trees.generators import sequential_worst_case


@pytest.fixture(scope="module")
def table():
    return run_experiment("e12")


@pytest.mark.experiment("e12")
def test_theorem5_expected_speedup(table, benchmark):
    ratios = table.column("ratio")
    assert ratios == sorted(ratios), "expected speed-up grows with n"
    assert ratios[-1] > 3.0
    # Deterministic S* certifies the instances really are worst-case.
    for n, det in zip(table.column("n"), table.column("det S*")):
        assert det >= 2 ** n  # expands every leaf (and more)

    tree = sequential_worst_case(2, 10)
    benchmark(lambda: r_parallel_solve(tree, 1, seed=0).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e12")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
