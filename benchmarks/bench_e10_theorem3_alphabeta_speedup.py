"""E10 — Theorem 3 + Prop 5: Parallel alpha-beta's linear speed-up.

Also records the reproduction finding on Proposition 5: the literal
inequality P~(T) <= P~(H~) fails on a sizable fraction of instances,
but always within a small constant factor, leaving Theorem 3 intact.
"""

import pytest

from repro.bench import run_experiment
from repro.core.alphabeta import parallel_alpha_beta
from repro.trees.generators import iid_minmax


@pytest.fixture(scope="module")
def table():
    return run_experiment("e10")


@pytest.mark.experiment("e10")
def test_theorem3_shape(table, benchmark):
    for n, procs in zip(table.column("n"), table.column("procs")):
        assert procs <= n + 1
    # Speed-up grows with n within each (d, leaf-kind) family.
    for d, kind in ((2, "cont"), (2, "int"), (3, "cont")):
        sp = [r[6] for r in table.rows if r[0] == d and r[2] == kind]
        assert sp[-1] > sp[0]
    assert [r[6] for r in table.rows if r[0] == 2][-1] > 2.0
    # Prop 5 finding: violations exist but are small.
    assert max(table.column("prop5 max ratio")) < 2.0

    tree = iid_minmax(2, 11, seed=8)
    benchmark(lambda: parallel_alpha_beta(tree, 1).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e10")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
