"""Unit tests for the oracle-backed runner."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import LeftmostPolicy, WidthPolicy, sequential_solve
from repro.errors import ModelViolationError
from repro.models.oracle_runner import run_with_oracle
from repro.trees import ExplicitTree, exact_value
from repro.trees.generators import iid_boolean


def identity_oracle(x):
    return int(x) % 2


class TestOracleRunner:
    def test_matches_direct_evaluation(self):
        t = iid_boolean(2, 7, 0.45, seed=1)
        res = run_with_oracle(t, identity_oracle, WidthPolicy(1), None)
        assert res.value == exact_value(t)
        direct = sequential_solve(t)
        assert res.total_work <= t.num_leaves()
        assert res.value == direct.value

    def test_same_schedule_as_engine(self):
        from repro.core import parallel_solve

        t = iid_boolean(2, 6, 0.5, seed=2)
        res = run_with_oracle(t, identity_oracle, WidthPolicy(1), None)
        eng = parallel_solve(t, 1)
        assert res.trace.degrees == eng.trace.degrees
        assert res.evaluated == eng.evaluated

    def test_result_is_an_eval_result(self):
        from repro.core import run_boolean
        from repro.models.accounting import EvalResult

        t = iid_boolean(2, 6, 0.5, seed=2)
        res = run_with_oracle(t, identity_oracle, WidthPolicy(1), None)
        assert isinstance(res, EvalResult)
        assert res.processors == run_boolean(t, WidthPolicy(1)).processors

    def test_with_thread_pool(self):
        t = iid_boolean(2, 6, 0.5, seed=3)
        with ThreadPoolExecutor(max_workers=4) as pool:
            res = run_with_oracle(t, identity_oracle, WidthPolicy(1),
                                  pool)
        assert res.value == exact_value(t)

    def test_custom_payload(self):
        t = iid_boolean(2, 5, 0.5, seed=4)

        def payload(tree, leaf):
            return 2 * int(tree.leaf_value(leaf))  # oracle halves it

        def oracle(x):
            return (x // 2) % 2

        res = run_with_oracle(t, oracle, WidthPolicy(1), None,
                              payload=payload)
        assert res.value == exact_value(t)

    def test_timing_fields_populated(self):
        t = iid_boolean(2, 5, 0.5, seed=5)
        res = run_with_oracle(t, identity_oracle, LeftmostPolicy(1),
                              None)
        assert res.total_seconds > 0
        assert 0 <= res.oracle_seconds <= res.total_seconds

    def test_single_leaf_tree(self):
        t = ExplicitTree([()], {0: 1})
        res = run_with_oracle(t, identity_oracle, WidthPolicy(1), None)
        assert res.value == 1
        assert res.num_steps == 1

    def test_max_steps_guard(self):
        t = iid_boolean(2, 7, 0.5, seed=6)
        with pytest.raises(ModelViolationError):
            run_with_oracle(t, identity_oracle, LeftmostPolicy(1),
                            None, max_steps=2)


class TestBatchValidation:
    def test_dead_leaf_rejected(self):
        from repro.core import run_boolean

        # Preorder ids: 0 root, 1 = [1, 0] (leaves 2, 3), 4 = [0, 0]
        # (leaves 5, 6).  Evaluating leaf 2 (value 1) kills node 1's
        # subtree, so leaf 3 is dead while the root is undetermined.
        t = ExplicitTree.from_nested([[1, 0], [0, 0]])

        calls = {"n": 0}

        def bad_policy(tree, state):
            calls["n"] += 1
            if calls["n"] == 1:
                return [2]
            return [3]  # dead

        with pytest.raises(ModelViolationError):
            run_boolean(t, bad_policy, validate_batches=True)

    def test_duplicate_in_batch_rejected(self):
        from repro.core import run_boolean

        t = ExplicitTree.from_nested([0, 0])
        with pytest.raises(ModelViolationError):
            run_boolean(t, lambda tree, st: [1, 1],
                        validate_batches=True)

    def test_non_leaf_rejected(self):
        from repro.core import run_boolean

        t = ExplicitTree.from_nested([[0, 0], 0])
        with pytest.raises(ModelViolationError):
            run_boolean(t, lambda tree, st: [1],
                        validate_batches=True)

    def test_valid_policies_pass_validation(self):
        from repro.core import WidthPolicy, run_boolean

        t = iid_boolean(2, 6, 0.5, seed=7)
        res = run_boolean(t, WidthPolicy(1), validate_batches=True)
        assert res.value == exact_value(t)
