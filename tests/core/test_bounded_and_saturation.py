"""Unit tests for bounded-processor and saturation SOLVE variants."""

import pytest

from repro.core import (
    BooleanState,
    WidthPolicy,
    parallel_solve,
    saturation_solve,
    sequential_solve,
    span,
    team_solve,
)
from repro.core.policies import budgeted_walk
from repro.trees import exact_value
from repro.trees.generators import iid_boolean, sequential_worst_case


class TestSelectionWithNumbers:
    def test_numbers_match_reference(self):
        for seed in range(6):
            t = iid_boolean(2, 6, 0.4, seed=seed)
            state = BooleanState(t)
            for leaf, pn in budgeted_walk(t, 3, state.settled):
                assert pn == state.pruning_number(leaf)

    def test_numbers_bounded_by_width(self):
        t = iid_boolean(3, 4, 0.4, seed=1)
        state = BooleanState(t)
        for _leaf, pn in budgeted_walk(t, 2, state.settled):
            assert 0 <= pn <= 2


class TestBoundedProcessors:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_value_correct(self, p):
        t = iid_boolean(2, 8, 0.45, seed=p)
        res = parallel_solve(t, 2, max_processors=p)
        assert res.value == exact_value(t)
        assert res.processors <= p

    def test_one_processor_is_sequential(self):
        # Smallest pruning number, leftmost tie-break, one processor:
        # always the leftmost live leaf.
        t = iid_boolean(2, 7, 0.5, seed=3)
        for w in (1, 3):
            res = parallel_solve(t, w, max_processors=1)
            assert res.evaluated == sequential_solve(t).evaluated

    def test_more_processors_never_slower(self):
        t = iid_boolean(2, 9, 0.4, seed=4)
        steps = [
            parallel_solve(t, 2, max_processors=p).num_steps
            for p in (1, 2, 4, 8, 16)
        ]
        assert all(a >= b for a, b in zip(steps, steps[1:]))

    def test_cap_above_usage_changes_nothing(self):
        t = iid_boolean(2, 8, 0.45, seed=5)
        free = parallel_solve(t, 1)
        capped = parallel_solve(t, 1, max_processors=1000)
        assert free.trace.degrees == capped.trace.degrees

    def test_urgency_ordering(self):
        # The selected subset consists of the smallest pruning numbers.
        t = iid_boolean(2, 6, 0.4, seed=6)
        state = BooleanState(t)
        scored = dict(budgeted_walk(t, 3, state.settled))
        batch = WidthPolicy(3, max_processors=3)(t, state)
        chosen = sorted(scored[leaf] for leaf in batch)
        rejected = sorted(
            pn for leaf, pn in scored.items() if leaf not in batch
        )
        assert len(batch) == 3
        if rejected:
            assert chosen[-1] <= rejected[0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WidthPolicy(-1, max_processors=2)
        with pytest.raises(ValueError):
            WidthPolicy(1, max_processors=0)


class TestSaturationAndSpan:
    def test_value_correct(self):
        t = iid_boolean(2, 7, 0.5, seed=7)
        assert saturation_solve(t).value == exact_value(t)

    def test_span_lower_bounds_all_policies(self):
        for seed in range(5):
            t = iid_boolean(2, 7, 0.45, seed=seed)
            sp = span(t)
            assert sp <= parallel_solve(t, 1).num_steps
            assert sp <= parallel_solve(t, 3).num_steps
            assert sp <= team_solve(t, 64).num_steps
            assert sp <= sequential_solve(t).num_steps

    def test_span_at_most_leaf_count_depthish(self):
        t = sequential_worst_case(2, 8)
        # Worst-case instance: every leaf matters; the span is still
        # far below the sequential cost.
        assert span(t) < sequential_solve(t).num_steps

    def test_span_of_single_leaf(self):
        from repro.trees import ExplicitTree

        t = ExplicitTree([()], {0: 1})
        assert span(t) == 1
