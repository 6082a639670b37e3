"""E19 — minimax / alpha-beta / SCOUT / SSS* head-to-head."""

import pytest

from repro.core.alphabeta import sss_star
from repro.trees.generators import iid_minmax


@pytest.mark.experiment("e19")
def test_registry_gates(spec_gates):
    spec_gates("e19")


@pytest.mark.experiment("e19")
def test_kernel(benchmark):
    tree = iid_minmax(2, 10, seed=1)
    benchmark(lambda: sss_star(tree).total_work)
