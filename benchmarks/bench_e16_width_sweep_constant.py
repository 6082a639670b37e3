"""E16 — Section 8 remarks: width sweep and the empirical constant c."""

import pytest

from repro.core import parallel_solve
from repro.trees.generators import sequential_worst_case


@pytest.mark.experiment("e16")
def test_registry_gates(spec_gates):
    spec_gates("e16")


@pytest.mark.experiment("e16")
def test_kernel(benchmark):
    tree = sequential_worst_case(2, 10)
    benchmark(lambda: parallel_solve(tree, 3).num_steps)
