"""E8 — Theorem 2: the pruning process preserves the root value."""

import pytest

from repro.core.alphabeta import sequential_alpha_beta
from repro.trees.generators import iid_minmax


@pytest.mark.experiment("e08")
def test_registry_gates(spec_gates):
    spec_gates("e08")


@pytest.mark.experiment("e08")
def test_kernel(benchmark):
    tree = iid_minmax(2, 12, seed=4)
    benchmark(lambda: sequential_alpha_beta(tree).num_steps)
