"""E18 — Pearl's alpha-beta branching factor vs measured growth."""

import pytest

from repro.core.alphabeta import alpha_beta
from repro.trees.generators import iid_minmax


@pytest.mark.experiment("e18")
def test_registry_gates(spec_gates):
    spec_gates("e18")


@pytest.mark.experiment("e18")
def test_kernel(benchmark):
    tree = iid_minmax(2, 12, seed=0)
    benchmark(lambda: alpha_beta(tree).total_work)
