"""E22 — Theorem 1 on million-leaf instances via the fast path."""

import pytest

from repro.bench import run_experiment
from repro.core.fastpath import uniform_sequential_cost
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.fixture(scope="module")
def table():
    return run_experiment("e22")


@pytest.mark.experiment("e22")
def test_constant_holds_at_scale(table, benchmark):
    speedups = table.column("speed-up")
    assert speedups == sorted(speedups), "speed-up grows with n"
    constants = table.column("c = sp/(n+1)")
    # Theorem 1's constant: bounded away from zero, and stable (no
    # systematic collapse) across the entire height range.
    assert min(constants) > 0.2
    assert constants[-1] >= constants[0] * 0.8
    for n, procs in zip(table.column("n"), table.column("procs")):
        assert procs <= n + 1

    tree = iid_boolean(2, 20, level_invariant_bias(2), seed=5)
    benchmark(lambda: uniform_sequential_cost(tree)[1])
    print("\n" + table.render())


@pytest.mark.experiment("e22")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
