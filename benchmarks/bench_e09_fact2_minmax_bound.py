"""E9 — Fact 2: inherent MIN/MAX lower bound d^(n/2)+d^ceil(n/2)-1."""

import pytest

from repro.analysis import fact2_certificate_size
from repro.trees.generators import iid_minmax


@pytest.mark.experiment("e09")
def test_registry_gates(spec_gates):
    spec_gates("e09")


@pytest.mark.experiment("e09")
def test_kernel(benchmark):
    tree = iid_minmax(2, 10, seed=6)
    benchmark(lambda: fact2_certificate_size(tree))
