"""E4 — Proposition 2: P_w(T) <= P_w(H_T), exactly, for Boolean trees."""

import pytest

from repro.analysis import skeleton_of
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.mark.experiment("e04")
def test_registry_gates(spec_gates):
    spec_gates("e04")


@pytest.mark.experiment("e04")
def test_kernel(benchmark):
    tree = iid_boolean(2, 12, level_invariant_bias(2), seed=3)
    benchmark(lambda: skeleton_of(tree).num_nodes())
