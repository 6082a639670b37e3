"""E14 — Section 6: golden-ratio i.i.d. setting, speed-up vs width."""

import pytest

from repro.core import parallel_solve
from repro.trees.generators import golden_ratio_instance


@pytest.mark.experiment("e14")
def test_registry_gates(spec_gates):
    spec_gates("e14")


@pytest.mark.experiment("e14")
def test_kernel(benchmark):
    tree = golden_ratio_instance(13, seed=21)
    benchmark(lambda: parallel_solve(tree, 2).num_steps)
