"""E11 — Theorem 4 + Prop 6: node-expansion model linear speed-up."""

import pytest

from repro.bench import run_experiment
from repro.core.nodeexpansion import n_parallel_solve
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.fixture(scope="module")
def table():
    return run_experiment("e11")


@pytest.mark.experiment("e11")
def test_theorem4_shape(table, benchmark):
    for n, procs in zip(table.column("n"), table.column("procs")):
        assert procs <= n + 1
    for d in (2, 3):
        sp = [r[5] for r in table.rows if r[0] == d]
        assert sp == sorted(sp), "speed-up grows with n"
    assert all(table.column("prop6 ok"))

    tree = iid_boolean(2, 13, level_invariant_bias(2), seed=2)
    benchmark(lambda: n_parallel_solve(tree, 1).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e11")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
