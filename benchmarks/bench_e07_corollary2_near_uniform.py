"""E7 — Corollary 2: near-uniform trees keep the linear speed-up."""

import pytest

from repro.bench import run_experiment
from repro.core import parallel_solve
from repro.trees.generators import near_uniform_boolean


@pytest.fixture(scope="module")
def table():
    return run_experiment("e07")


@pytest.mark.experiment("e07")
def test_corollary2_speedup_grows(table, benchmark):
    speedups = table.column("speed-up")
    # Speed-up grows with the height band on (alpha, beta)-near-uniform
    # trees just as on uniform ones.
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 3.0

    tree = near_uniform_boolean(4, 12, 0.5, 0.6, p=0.3, seed=9)
    benchmark(lambda: parallel_solve(tree, 1).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e07")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
