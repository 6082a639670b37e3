"""E18 — Pearl's alpha-beta branching factor vs measured growth."""

import pytest

from repro.bench import run_experiment
from repro.core.alphabeta import alpha_beta
from repro.trees.generators import iid_minmax


@pytest.fixture(scope="module")
def table():
    return run_experiment("e18")


@pytest.mark.experiment("e18")
def test_growth_between_sqrt_d_and_d(table, benchmark):
    for row in table.rows:
        _d, _hs, measured, pearl, mm_growth, floor = row
        assert floor < measured < mm_growth
        # Finite heights bias the measured factor up; it should sit
        # within ~25% of Pearl's asymptotic value.
        assert measured == pytest.approx(pearl, rel=0.25)

    tree = iid_minmax(2, 12, seed=0)
    benchmark(lambda: alpha_beta(tree).total_work)
    print("\n" + table.render())


@pytest.mark.experiment("e18")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
