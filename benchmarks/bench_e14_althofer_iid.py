"""E14 — Section 6: golden-ratio i.i.d. setting, speed-up vs width."""

import pytest

from repro.bench import run_experiment
from repro.core import parallel_solve
from repro.trees.generators import golden_ratio_instance


@pytest.fixture(scope="module")
def table():
    return run_experiment("e14")


@pytest.mark.experiment("e14")
def test_althofer_proportional_speedup(table, benchmark):
    for n in (10, 12, 14):
        rows = [r for r in table.rows if r[0] == n]
        speedups = [r[5] for r in rows]
        widths = [r[1] for r in rows]
        assert widths == [0, 1, 2, 3]
        assert speedups == sorted(speedups), "wider is faster"
        # Speed-up proportional to processors for moderate widths:
        # efficiency does not collapse going from w=1 to w=2.
        eff = [r[7] for r in rows]
        assert eff[2] > 0.15 * eff[1]

    tree = golden_ratio_instance(13, seed=21)
    benchmark(lambda: parallel_solve(tree, 2).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e14")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
