"""E20 — design-choice ablations (matched processors; machine
scheduling priority)."""

import pytest

from repro.simulator import simulate
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.mark.experiment("e20")
def test_registry_gates(spec_gates):
    spec_gates("e20")


@pytest.mark.experiment("e20")
def test_kernel(benchmark):
    tree = iid_boolean(2, 10, level_invariant_bias(2), seed=2)
    benchmark(lambda: simulate(tree, work_priority="s_first").ticks)
