"""Cache-correctness properties.

Serving identical streams with cache capacities 0 (always recompute),
a tiny evicting LRU, and unbounded must produce identical responses —
the cache can only change *whether* work is recomputed.  And the
canonical key must be collision-free in practice: hash-equal trees
are semantically equal over every generated corpus we can throw at
it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    EvalRequest,
    ShardedBatchService,
    request_key,
    response_log,
)
from repro.trees import canonical_arrays, canonical_hash, trees_equal
from repro.trees.generators import iid_boolean, iid_minmax_integers

from ..conftest import (
    SPECIAL_FLOATS,
    boolean_tree_from_spec,
    minmax_tree_from_spec,
    nested_boolean,
    uniform_trees,
)


def _spec_requests(specs, repeats):
    """A stream over the spec trees with hypothesis-chosen repeats."""
    trees = [boolean_tree_from_spec(spec) for spec in specs]
    requests = []
    for rid, idx in enumerate(repeats):
        requests.append(EvalRequest.make(
            rid, "sequential", trees[idx % len(trees)]
        ))
    return requests


@settings(max_examples=25, deadline=None)
@given(
    st.lists(nested_boolean(), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=9),
             min_size=1, max_size=12),
)
def test_cache_capacity_never_changes_responses(specs, repeats):
    requests = _spec_requests(specs, repeats)
    logs = []
    for capacity in (0, 2, None):
        with ShardedBatchService(2, cache_size=capacity) as service:
            logs.append(response_log(service.serve(requests)))
    assert logs[0] == logs[1] == logs[2]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(nested_boolean(), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=9),
             min_size=1, max_size=12),
)
def test_tiny_evicting_cache_still_serves_correctly(specs, repeats):
    requests = _spec_requests(specs, repeats)
    with ShardedBatchService(1, cache_size=1) as service:
        responses = service.serve(requests)
        # Evictions may have happened; every response still matches a
        # fresh uncached evaluation.
        with ShardedBatchService(1, cache_size=0) as fresh:
            again = fresh.serve(requests)
    assert response_log(responses) == response_log(again)


def _either_or_same(strategy):
    """Pairs ``(a, b)`` where ``b`` is ``a`` or drawn independently, so
    both sides of the equivalence are exercised."""
    return strategy.flatmap(
        lambda a: st.tuples(st.just(a), st.one_of(st.just(a), strategy))
    )


def _assert_hash_iff_equal(a, b):
    assert (canonical_hash(a) == canonical_hash(b)) == trees_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(nested_boolean(), nested_boolean())
def test_hash_equality_iff_semantic_equality(spec_a, spec_b):
    a = boolean_tree_from_spec(spec_a)
    b = boolean_tree_from_spec(spec_b)
    _assert_hash_iff_equal(a, b)


#: MIN/MAX specs over the floats whose ``==`` and ``repr`` disagree.
_SPECIAL_MINMAX = st.recursive(
    st.sampled_from(SPECIAL_FLOATS),
    lambda children: st.lists(children, min_size=1, max_size=2),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None)
@given(_either_or_same(_SPECIAL_MINMAX))
def test_hash_equality_iff_semantic_equality_minmax(specs):
    spec_a, spec_b = specs
    _assert_hash_iff_equal(
        minmax_tree_from_spec(spec_a), minmax_tree_from_spec(spec_b)
    )


@settings(max_examples=60, deadline=None)
@given(_either_or_same(uniform_trees(max_leaves=8)))
def test_hash_equality_iff_semantic_equality_uniform_vs_explicit(trees):
    a, b = trees
    # Different objects, so neither side reuses the other's memo.
    _assert_hash_iff_equal(a, canonical_arrays(b).to_explicit())


def test_no_key_collisions_over_generated_corpus():
    """Distinct (tree, algo, params) triples produce distinct keys."""
    trees = [
        iid_boolean(2, h, 0.5, seed=s)
        for h in (2, 3, 4) for s in range(4)
    ] + [
        iid_minmax_integers(2, h, seed=s, num_values=3)
        for h in (2, 3, 4) for s in range(4)
    ]
    seen = {}
    for i, tree in enumerate(trees):
        algo = "sequential" if i < 12 else "minimax"
        key = request_key(EvalRequest.make(i, algo, tree))
        if key in seen:
            assert trees_equal(tree, seen[key]), (
                "canonical-key collision between semantically "
                "different requests"
            )
        seen[key] = tree
    # sanity: hash-identical duplicates would shrink the key set a lot
    assert len(seen) >= len(trees) - 2
