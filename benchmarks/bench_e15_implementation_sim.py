"""E15 — Section 7: the message-passing machine on binary NOR trees."""

import pytest

from repro.bench import run_experiment
from repro.simulator import simulate
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.fixture(scope="module")
def table():
    return run_experiment("e15")


@pytest.mark.experiment("e15")
def test_implementation_preserves_speedup(table, benchmark):
    full_rows = [r for r in table.rows if r[1] == r[0] + 1]
    # The machine stays within a constant factor of the ideal model.
    assert all(r[5] < 4.0 for r in full_rows), "ticks/P* bounded"
    # And the speed-up over sequential grows with n.
    speedups = [r[6] for r in full_rows]
    assert speedups[-1] > speedups[0]
    # Zone multiplexing: more physical processors, fewer ticks.
    fixed_rows = [r for r in table.rows if r[1] != r[0] + 1]
    ticks = [r[4] for r in fixed_rows]
    assert ticks == sorted(ticks, reverse=True)

    tree = iid_boolean(2, 11, level_invariant_bias(2), seed=30)
    benchmark(lambda: simulate(tree).ticks)
    print("\n" + table.render())


@pytest.mark.experiment("e15")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
