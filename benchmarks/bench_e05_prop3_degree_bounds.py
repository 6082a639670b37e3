"""E5 — Proposition 3: step-degree histogram vs the binomial bound."""

import pytest

from repro.analysis import skeleton_of, trace_codes
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.mark.experiment("e05")
def test_registry_gates(spec_gates):
    spec_gates("e05")


@pytest.mark.experiment("e05")
def test_kernel(benchmark):
    tree = iid_boolean(2, 11, level_invariant_bias(2), seed=5)
    skel = skeleton_of(tree)
    benchmark(lambda: len(trace_codes(skel, 1)))
