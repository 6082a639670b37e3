"""E19 — minimax / alpha-beta / SCOUT / SSS* head-to-head."""

import pytest

from repro.bench import run_experiment
from repro.core.alphabeta import sss_star
from repro.trees.generators import iid_minmax


@pytest.fixture(scope="module")
def table():
    return run_experiment("e19")


@pytest.mark.experiment("e19")
def test_baseline_ordering(table, benchmark):
    for row in table.rows:
        n, _trials, mm, ab, sc_events, sc_distinct, ss, dominance = row
        assert dominance, "SSS* must never exceed alpha-beta"
        assert ss <= ab <= mm
        assert sc_distinct <= mm
        # SCOUT re-visits leaves: events >= distinct.
        assert sc_events >= sc_distinct
        # minimax reads all 2^n leaves.
        assert mm == 2 ** n

    tree = iid_minmax(2, 10, seed=1)
    benchmark(lambda: sss_star(tree).total_work)
    print("\n" + table.render())


@pytest.mark.experiment("e19")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
