"""E4 — Proposition 2: P_w(T) <= P_w(H_T), exactly, for Boolean trees."""

import pytest

from repro.analysis import skeleton_of
from repro.bench import run_experiment
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.fixture(scope="module")
def table():
    return run_experiment("e04")


@pytest.mark.experiment("e04")
def test_prop2_no_violations(table, benchmark):
    assert all(v == 0 for v in table.column("violations"))
    assert all(r <= 1.0 for r in table.column("max P(T)/P(H)"))

    tree = iid_boolean(2, 12, level_invariant_bias(2), seed=3)
    benchmark(lambda: skeleton_of(tree).num_nodes())
    print("\n" + table.render())


@pytest.mark.experiment("e04")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
