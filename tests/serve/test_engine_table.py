"""The engine table agrees with the engines it fronts.

Every spec in :data:`repro.serve.engines.ALGORITHMS` is checked
against its own engine, run without the table's check
(:meth:`EngineSpec.run`): a parameter at its minimum is accepted by
both, one below is rejected by both, and so is every tree kind the
spec does not list.
"""

import pytest

from repro.errors import InvalidRequestError, ReproError
from repro.serve import ALGORITHMS, EvalRequest, request_key, run_algorithm
from repro.trees.generators import iid_boolean, iid_minmax_integers
from repro.types import TreeKind

#: One binary uniform tree per kind (the Section-7 machine is
#: binary-NOR only).
TREES = {
    TreeKind.BOOLEAN: iid_boolean(2, 3, 0.5, seed=11),
    TreeKind.MINMAX: iid_minmax_integers(2, 3, seed=11, num_values=8),
}

PARAM_CELLS = [
    pytest.param(algo, name, id=f"{algo}-{name}")
    for algo, spec in ALGORITHMS.items()
    for name in spec.params
]
KIND_CELLS = [
    pytest.param(algo, kind, id=f"{algo}-{kind.value}")
    for algo, spec in ALGORITHMS.items()
    for kind in TreeKind
    if kind not in spec.kinds
]
ACCEPTED_CELLS = [
    pytest.param(algo, kind, id=f"{algo}-{kind.value}")
    for algo, spec in ALGORITHMS.items()
    for kind in sorted(spec.kinds, key=lambda k: k.value)
]


def _tree_for(algo):
    kinds = ALGORITHMS[algo].kinds
    kind = TreeKind.BOOLEAN if TreeKind.BOOLEAN in kinds else TreeKind.MINMAX
    return TREES[kind]


def test_wire_names_in_table_order():
    assert list(ALGORITHMS) == [
        "sequential", "team", "parallel", "nsequential", "nparallel",
        "machine", "alphabeta", "sequential_ab", "parallel_ab",
        "nsequential_ab", "nparallel_ab", "scout", "sss", "minimax",
    ]


def test_declared_parameters():
    declared = {
        (algo, name): (param.default, param.minimum)
        for algo, spec in ALGORITHMS.items()
        for name, param in spec.params.items()
    }
    assert declared == {
        ("team", "processors"): (4, 1),
        ("parallel", "width"): (1, 0),
        ("nparallel", "width"): (1, 0),
        ("machine", "processors"): (None, 1),
        ("parallel_ab", "width"): (1, 0),
        ("nparallel_ab", "width"): (1, 0),
    }


def test_routed_engines_are_the_dispatch_four():
    routed = {algo for algo, spec in ALGORITHMS.items() if spec.routed}
    assert routed == {"team", "parallel", "sequential_ab", "parallel_ab"}


@pytest.mark.parametrize("algo,name", PARAM_CELLS)
def test_minimum_is_accepted_by_request_and_engine(algo, name):
    spec = ALGORITHMS[algo]
    tree = _tree_for(algo)
    minimum = spec.params[name].minimum
    EvalRequest.make(0, algo, tree, **{name: minimum})
    assert spec.run(tree, {name: minimum}) == run_algorithm(
        algo, tree, {name: minimum}
    )


@pytest.mark.parametrize("algo,name", PARAM_CELLS)
def test_below_minimum_is_rejected_by_request_and_engine(algo, name):
    spec = ALGORITHMS[algo]
    tree = _tree_for(algo)
    below = spec.params[name].minimum - 1
    with pytest.raises(InvalidRequestError, match=name):
        EvalRequest.make(0, algo, tree, **{name: below})
    with pytest.raises((ReproError, ValueError)):
        spec.run(tree, {name: below})


@pytest.mark.parametrize("algo,name", PARAM_CELLS)
@pytest.mark.parametrize("value", [True, 1.0, 1.7, "2", None])
def test_non_int_values_are_rejected(algo, name, value):
    with pytest.raises(InvalidRequestError, match="must be an int"):
        EvalRequest.make(0, algo, _tree_for(algo), **{name: value})


def test_every_boolean_only_engine_and_sss_have_a_foreign_kind():
    assert len(KIND_CELLS) == 7


@pytest.mark.parametrize("algo,kind", KIND_CELLS)
def test_foreign_tree_kind_is_rejected_by_request_and_engine(algo, kind):
    tree = TREES[kind]
    with pytest.raises(InvalidRequestError, match=kind.value):
        EvalRequest.make(0, algo, tree)
    with pytest.raises((ReproError, ValueError)):
        ALGORITHMS[algo].run(tree, {})


@pytest.mark.parametrize("algo,kind", ACCEPTED_CELLS)
def test_accepted_tree_kinds_run(algo, kind):
    tree = TREES[kind]
    EvalRequest.make(0, algo, tree)
    value, steps, work = run_algorithm(algo, tree, {})
    assert steps >= 1 and work >= 1


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_unknown_key_is_rejected(algo):
    tree = _tree_for(algo)
    with pytest.raises(InvalidRequestError, match="unknown parameter"):
        EvalRequest.make(0, algo, tree, bogus=1)
    with pytest.raises(InvalidRequestError, match="unknown parameter"):
        run_algorithm(algo, tree, {"bogus": 1})


def test_unknown_algorithm_is_rejected():
    with pytest.raises(InvalidRequestError, match="unknown algorithm"):
        EvalRequest.make(0, "nope", TREES[TreeKind.BOOLEAN])
    with pytest.raises(InvalidRequestError, match="unknown algorithm"):
        run_algorithm("nope", TREES[TreeKind.BOOLEAN], {})


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_route_keywords_reach_only_the_routed_engines(algo):
    spec = ALGORITHMS[algo]
    tree = _tree_for(algo)
    params = {"backend": "arena"}
    if spec.routed:
        assert run_algorithm(algo, tree, params) == run_algorithm(
            algo, tree, {}
        )
    else:
        with pytest.raises(InvalidRequestError, match="backend"):
            run_algorithm(algo, tree, params)


def test_route_keyword_values_are_left_to_dispatch():
    with pytest.raises(ValueError, match="bogus"):
        run_algorithm(
            "parallel", TREES[TreeKind.BOOLEAN], {"backend": "bogus"}
        )


def test_defaults_are_not_folded_into_request_keys():
    tree = TREES[TreeKind.BOOLEAN]
    bare = EvalRequest.make(0, "parallel", tree)
    explicit = EvalRequest.make(0, "parallel", tree, width=1)
    assert bare.params == ()
    assert request_key(bare) != request_key(explicit)
