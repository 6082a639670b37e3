"""E3 — Theorem 1 + Corollary 1: linear speed-up of width-1 SOLVE."""

import pytest

from repro.bench import run_experiment
from repro.core import parallel_solve
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.fixture(scope="module")
def table():
    return run_experiment("e03")


@pytest.fixture(scope="module")
def table_worst():
    return run_experiment("e03b")


@pytest.mark.experiment("e03")
def test_theorem1_shape(table, table_worst, benchmark):
    # Processors used stay at n + 1.
    for n, procs in zip(table.column("n"), table.column("procs")):
        assert procs <= n + 1
    # The normalised constant stays bounded away from zero at the
    # largest heights (Theorem 1's c), and the speed-up itself grows
    # with n within each branching factor.
    rows_d2 = [r for r in table.rows if r[0] == 2]
    speedups = [r[5] for r in rows_d2]
    assert speedups == sorted(speedups), "speed-up must grow with n"
    assert rows_d2[-1][7] > 0.15  # c at the largest n
    # Corollary 1: the total-work blow-up c' stays bounded.
    assert max(table.column("work/S (c')")) < 4.0
    # Worst-case family: speed-up also grows with n (it is an
    # every-instance theorem, not an average-case one).
    for d in (2, 3):
        sp = [r[4] for r in table_worst.rows if r[0] == d]
        assert sp == sorted(sp)

    tree = iid_boolean(2, 14, level_invariant_bias(2), seed=1)
    benchmark(lambda: parallel_solve(tree, 1).num_steps)
    print("\n" + table.render())
    print("\n" + table_worst.render())


@pytest.mark.experiment("e03")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)


@pytest.mark.experiment("e03b")
def test_registry_gate_parity_worst(table_worst, gate_parity):
    gate_parity(table_worst)
