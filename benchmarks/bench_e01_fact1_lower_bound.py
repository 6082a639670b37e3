"""E1 — Fact 1: inherent lower bound on total work for B(d, n)."""

import pytest

from repro.bench import run_experiment
from repro.core import sequential_solve
from repro.trees.generators import forced_value_instance


@pytest.fixture(scope="module")
def table():
    return run_experiment("e01")


@pytest.mark.experiment("e01")
def test_fact1_bound_tight_and_respected(table, benchmark):
    bounds = table.column("bound d^(n/2)")
    for col in ("S forced-0", "S forced-1", "min S iid"):
        for bound, measured in zip(bounds, table.column(col)):
            assert measured >= bound
    # Tightness: the forced-0 family meets the bound exactly.
    assert table.column("S forced-0") == bounds
    # Proof-tree sizes certify the bound.
    assert table.column("proof leaves") == bounds

    tree = forced_value_instance(2, 14, 0)
    benchmark(lambda: sequential_solve(tree).total_work)
    print("\n" + table.render())


@pytest.mark.experiment("e01")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
