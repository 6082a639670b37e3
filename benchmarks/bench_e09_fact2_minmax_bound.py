"""E9 — Fact 2: inherent MIN/MAX lower bound d^(n/2)+d^ceil(n/2)-1."""

import pytest

from repro.analysis import fact2_certificate_size
from repro.bench import run_experiment
from repro.trees.generators import iid_minmax


@pytest.fixture(scope="module")
def table():
    return run_experiment("e09")


@pytest.mark.experiment("e09")
def test_fact2_bound_respected(table, benchmark):
    for bound, smin, cert in zip(
        table.column("bound"),
        table.column("min S~ (iid)"),
        table.column("mean certificate"),
    ):
        assert smin >= bound
        assert cert >= bound

    tree = iid_minmax(2, 10, seed=6)
    benchmark(lambda: fact2_certificate_size(tree))
    print("\n" + table.render())


@pytest.mark.experiment("e09")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
