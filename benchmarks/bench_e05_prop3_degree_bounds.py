"""E5 — Proposition 3: step-degree histogram vs the binomial bound."""

import pytest

from repro.analysis import skeleton_of, trace_codes
from repro.bench import run_experiment
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.fixture(scope="module")
def table():
    return run_experiment("e05")


@pytest.mark.experiment("e05")
def test_prop3_histogram_within_bound(table, benchmark):
    # t_{k+1}(H_T) never exceeds C(n, k)(d-1)^k.
    for bound, mx in zip(table.column("bound"), table.column("max t_{k+1}")):
        assert mx <= bound
    assert all(u <= 1.0 for u in table.column("utilisation"))
    # The two code properties verified inside the experiment.
    assert "codes lexicographically decreasing: True" in table.notes[0]
    assert "degree == 1 + #nonzero(code) everywhere: True" in table.notes[1]

    tree = iid_boolean(2, 11, level_invariant_bias(2), seed=5)
    skel = skeleton_of(tree)
    benchmark(lambda: len(trace_codes(skel, 1)))
    print("\n" + table.render())


@pytest.mark.experiment("e05")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
