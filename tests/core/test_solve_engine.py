"""Unit tests for the step-synchronous Boolean engine."""

import pytest

from repro.core import (
    LeftmostPolicy,
    WidthPolicy,
    run_boolean,
    sequential_solve,
)
from repro.errors import ModelViolationError
from repro.trees import ExplicitTree, UniformTree
from repro.trees.generators import iid_boolean

import numpy as np


class TestEngineBasics:
    def test_single_leaf_tree(self):
        t = ExplicitTree([()], {0: 1})
        res = run_boolean(t, LeftmostPolicy(1))
        assert res.value == 1
        assert res.num_steps == 1
        assert res.evaluated == [0]

    def test_width0_equals_recursive_sequential(self):
        for seed in range(10):
            t = iid_boolean(2, 6, 0.5, seed=seed)
            eng = run_boolean(t, WidthPolicy(0))
            rec = sequential_solve(t)
            assert eng.value == rec.value
            assert eng.evaluated == rec.evaluated
            assert eng.num_steps == rec.num_steps

    def test_sequential_policy_equals_width0(self):
        t = iid_boolean(3, 4, 0.4, seed=1)
        a = run_boolean(t, LeftmostPolicy(1))
        b = run_boolean(t, WidthPolicy(0))
        assert a.evaluated == b.evaluated

    def test_empty_policy_raises(self):
        t = iid_boolean(2, 3, 0.5, seed=0)
        with pytest.raises(ModelViolationError):
            run_boolean(t, lambda tree, state: [])

    def test_max_steps_guard(self):
        t = iid_boolean(2, 8, 0.5, seed=0)
        with pytest.raises(ModelViolationError):
            run_boolean(t, LeftmostPolicy(1), max_steps=2)

    def test_on_step_hook_sees_every_step(self):
        t = iid_boolean(2, 5, 0.5, seed=2)
        steps = []
        res = run_boolean(
            t, WidthPolicy(1),
            on_step=lambda state, i, batch: steps.append((i, len(batch))),
        )
        assert len(steps) == res.num_steps
        assert [i for i, _ in steps] == list(range(res.num_steps))
        assert [d for _, d in steps] == res.trace.degrees

    def test_keep_batches(self):
        t = iid_boolean(2, 5, 0.5, seed=3)
        res = run_boolean(t, WidthPolicy(1), keep_batches=True)
        assert res.trace.batches is not None
        assert sum(len(b) for b in res.trace.batches) == res.total_work

    def test_no_leaf_evaluated_twice(self):
        t = iid_boolean(2, 7, 0.5, seed=4)
        res = run_boolean(t, WidthPolicy(2))
        assert len(set(res.evaluated)) == len(res.evaluated)

    def test_unary_chain(self):
        t = UniformTree(1, 6, np.array([1]))
        res = run_boolean(t, WidthPolicy(1))
        assert res.num_steps == 1
        assert res.value == 1  # six NOT gates over 1


class TestHeightZeroMainLoop:
    """Height-0 trees run through the main loop — no degenerate path.

    Regression: ``run_boolean`` used to special-case single-leaf trees
    and return before consulting the policy, skipping validation,
    tracing and the ``on_step`` hook.
    """

    def _leaf_tree(self):
        return ExplicitTree([()], {0: 1})

    def test_policy_is_consulted(self):
        calls = []

        def policy(tree, state):
            calls.append(True)
            return [tree.root]

        res = run_boolean(self._leaf_tree(), policy)
        assert calls == [True]
        assert res.value == 1

    def test_validate_batches_enforced(self):
        t = self._leaf_tree()
        # A policy violating the contract (duplicate selection) must
        # be caught even when the whole tree is a single leaf.
        bad = lambda tree, state: [tree.root, tree.root]
        with pytest.raises(ModelViolationError):
            run_boolean(t, bad, validate_batches=True)

    def test_on_step_and_trace_fire_once(self):
        seen = []
        res = run_boolean(
            self._leaf_tree(), LeftmostPolicy(1),
            keep_batches=True,
            on_step=lambda state, i, batch: seen.append((i, tuple(batch))),
        )
        assert seen == [(0, (0,))]
        assert res.trace.degrees == [1]
        assert res.trace.batches == [(0,)]
