"""E8 — Theorem 2: the pruning process preserves the root value."""

import pytest

from repro.bench import run_experiment
from repro.core.alphabeta import sequential_alpha_beta
from repro.trees.generators import iid_minmax


@pytest.fixture(scope="module")
def table():
    return run_experiment("e08")


@pytest.mark.experiment("e08")
def test_theorem2_invariant_exact(table, benchmark):
    assert all(v == 0 for v in table.column("violations"))
    assert sum(table.column("steps checked")) > 100

    tree = iid_minmax(2, 12, seed=4)
    benchmark(lambda: sequential_alpha_beta(tree).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e08")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
