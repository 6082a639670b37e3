"""E15 — Section 7: the message-passing machine on binary NOR trees."""

import pytest

from repro.simulator import simulate
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.mark.experiment("e15")
def test_registry_gates(spec_gates):
    spec_gates("e15")


@pytest.mark.experiment("e15")
def test_kernel(benchmark):
    tree = iid_boolean(2, 11, level_invariant_bias(2), seed=30)
    benchmark(lambda: simulate(tree).ticks)
