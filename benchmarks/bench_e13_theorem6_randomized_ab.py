"""E13 — Theorem 6: randomized alpha-beta expected speed-up."""

import pytest

from repro.bench import run_experiment
from repro.core.randomized import r_parallel_alpha_beta
from repro.trees.generators import iid_minmax


@pytest.fixture(scope="module")
def table():
    return run_experiment("e13")


@pytest.mark.experiment("e13")
def test_theorem6_expected_speedup(table, benchmark):
    for d in (2, 3):
        ratios = [r[5] for r in table.rows if r[0] == d]
        assert ratios[-1] > ratios[0], "expected speed-up grows with n"
    assert max(table.column("ratio")) > 2.0

    tree = iid_minmax(2, 9, seed=12)
    benchmark(lambda: r_parallel_alpha_beta(tree, 1, seed=0).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e13")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
