"""E10 — Theorem 3 + Prop 5: Parallel alpha-beta's linear speed-up.

Also records the reproduction finding on Proposition 5: the literal
inequality P~(T) <= P~(H~) fails on a sizable fraction of instances,
but always within a small constant factor, leaving Theorem 3 intact.
"""

import pytest

from repro.core.alphabeta import parallel_alpha_beta
from repro.trees.generators import iid_minmax


@pytest.mark.experiment("e10")
def test_registry_gates(spec_gates):
    spec_gates("e10")


@pytest.mark.experiment("e10")
def test_kernel(benchmark):
    tree = iid_minmax(2, 11, seed=8)
    benchmark(lambda: parallel_alpha_beta(tree, 1).num_steps)
