"""E20 — design-choice ablations (matched processors; machine
scheduling priority)."""

import pytest

from repro.bench import run_experiment
from repro.simulator import simulate
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.fixture(scope="module")
def table():
    return run_experiment("e20")


@pytest.mark.experiment("e20")
def test_ablation_shapes(table, benchmark):
    rows = table.rows
    # Matched-processor comparison exists for every height and both
    # arms computed the same instances (speed-ups positive).
    team = [r for r in rows if r[0] == "team@n+1"]
    par = [r for r in rows if r[0] == "parallel w=1"]
    assert len(team) == len(par) >= 3
    for t_row, p_row in zip(team, par):
        assert t_row[4] > 1.0 and p_row[4] > 1.0
        # Average-case: the two are within a small factor of each
        # other at equal processor budgets.
        assert 0.5 <= t_row[4] / p_row[4] <= 2.5
    # The machine's default p-first scheduling beats sibling-first.
    prio = [r for r in rows if r[0] == "machine priority"]
    by_n = {}
    for r in prio:
        by_n.setdefault(r[1], {})[r[2]] = r[3]
    for n, settings in by_n.items():
        assert settings["p_first"] < settings["s_first"]

    tree = iid_boolean(2, 10, level_invariant_bias(2), seed=2)
    benchmark(lambda: simulate(tree, work_priority="s_first").ticks)
    print("\n" + table.render())


@pytest.mark.experiment("e20")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
