"""E16 — Section 8 remarks: width sweep and the empirical constant c."""

import pytest

from repro.bench import run_experiment
from repro.core import parallel_solve
from repro.trees.generators import sequential_worst_case


@pytest.fixture(scope="module")
def table():
    return run_experiment("e16")


@pytest.mark.experiment("e16")
def test_width_sweep_shape(table, benchmark):
    n = 12
    for family in ("iid p*", "worst-case", "all-ones"):
        rows = [r for r in table.rows if r[0] == family]
        procs = [r[6] for r in rows]
        speedups = [r[5] for r in rows]
        # Processor usage grows polynomially with the width: n+1 at
        # width 1, O(n^2) at width 2, O(n^3) at width 3.
        assert procs[1] <= n + 1
        assert procs[1] < procs[2] <= (n + 1) ** 2
        assert procs[2] < procs[3] <= (n + 1) ** 3
        # The Section 8 conjecture's shape: speed-up keeps growing.
        assert speedups == sorted(speedups)
    # The empirical width-1 constant c is far better than the provable
    # one (the paper: "a better constant is achievable").
    width1_c = [r[7] for r in table.rows if r[2] == 1]
    assert min(width1_c) > 0.2

    tree = sequential_worst_case(2, 10)
    benchmark(lambda: parallel_solve(tree, 3).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e16")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
