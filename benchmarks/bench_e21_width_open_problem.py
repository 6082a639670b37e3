"""E21 — the Section 8 open problem, measured."""

import pytest

from repro.bench import run_experiment
from repro.core import parallel_solve
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


@pytest.fixture(scope="module")
def table():
    return run_experiment("e21")


@pytest.mark.experiment("e21")
def test_open_problem_evidence_shapes(table, benchmark):
    for family in ("iid p*", "worst"):
        rows = [r for r in table.rows if r[0] == family]
        # Speed-ups keep increasing with width...
        by_instance = {}
        for r in rows:
            by_instance.setdefault((r[1], r[2]), []).append(r)
        for case_rows in by_instance.values():
            speedups = [r[5] for r in case_rows]
            assert speedups == sorted(speedups)
            # ...and the per-processor constant stays positive.
            assert all(r[7] > 0.03 for r in case_rows)
    # Honest open-problem evidence: the naive candidate bound is NOT
    # universally satisfied (if this flips to all-True, the candidate
    # deserves a second look as a conjecture).
    verdicts = table.column("hist<=cand")
    assert not all(verdicts) or len(set(verdicts)) == 1

    tree = iid_boolean(2, 12, level_invariant_bias(2), seed=9)
    benchmark(lambda: parallel_solve(tree, 2).num_steps)
    print("\n" + table.render())


@pytest.mark.experiment("e21")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
