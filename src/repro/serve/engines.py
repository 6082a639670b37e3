"""Algorithm dispatch for the batch-evaluation service.

:data:`ALGORITHMS` is the engine table: one :class:`EngineSpec` per
wire-level algorithm name, declaring the tree kinds, wire parameters
and entry point of its engine.  :func:`check_request` validates a
request against it, both where an
:class:`~repro.serve.request.EvalRequest` is built and in
:func:`run_algorithm`, which normalises the engines' heterogeneous
result types to one ``(value, steps, work)`` triple.
:func:`evaluate_payload` is the module-level worker function the
per-shard :class:`~repro.models.executors.OracleRuntime` pools
execute — it takes a plain dict (picklable across process
boundaries), rebuilds the tree, runs the engine and returns a plain
dict, so a shard worker needs nothing but this module importable.

Every engine here is deterministic given the request content, which
is what makes cached and freshly computed responses
indistinguishable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from ..core import parallel_solve, sequential_solve, team_solve
from ..core.alphabeta import (
    alpha_beta,
    minimax,
    parallel_alpha_beta,
    scout,
    sequential_alpha_beta,
    sss_star,
)
from ..core.nodeexpansion import (
    n_parallel_alpha_beta,
    n_parallel_solve,
    n_sequential_alpha_beta,
    n_sequential_solve,
)
from ..errors import InvalidRequestError, SimulationError
from ..simulator import check_binary_nor, simulate
from ..trees.base import GameTree
from ..trees.io import tree_from_dict
from ..trees.uniform import UniformTree
from ..types import TreeKind

__all__ = [
    "ALGORITHMS",
    "ROUTE_KEYWORDS",
    "EngineSpec",
    "Param",
    "check_request",
    "run_algorithm",
    "evaluate_payload",
]

#: value, model steps (ticks for the machine), total work.
EngineOutcome = Tuple[float, int, int]

#: ``run_algorithm``-only keywords, forwarded to the routed engines
#: (those that go through ``core.parallel_solve.dispatch``).  They are
#: not wire parameters; ``dispatch`` alone checks their values and
#: supplies their defaults.
ROUTE_KEYWORDS = ("backend", "executor")


@dataclass(frozen=True)
class Param:
    """One wire parameter: its value when absent, its smallest value."""

    default: Optional[int]
    minimum: int


@dataclass(frozen=True)
class EngineSpec:
    """One wire algorithm: what it accepts and how to run it.

    ``entry`` is called with the tree, then the ``params`` values in
    declaration order (every engine takes at most one), then the
    route keywords if ``routed``.  ``counters`` names the result
    attributes reported as ``(steps, work)``.  ``shape``, if set,
    raises :class:`~repro.errors.SimulationError` for a tree of an
    accepted kind that the engine still cannot run; only the machine
    has one.
    """

    entry: Callable[..., Any]
    kinds: FrozenSet[TreeKind]
    params: Mapping[str, Param] = field(default_factory=dict)
    routed: bool = False
    counters: Tuple[str, str] = ("num_steps", "total_work")
    shape: Optional[Callable[[GameTree], None]] = None

    def run(self, tree: GameTree, params: Mapping[str, Any]) -> EngineOutcome:
        """Run the engine on already-checked ``params``."""
        args = [params.get(n, p.default) for n, p in self.params.items()]
        route = {k: params[k] for k in ROUTE_KEYWORDS if k in params}
        res = self.entry(tree, *args, **route)
        steps, work = self.counters
        return float(res.value), getattr(res, steps), getattr(res, work)


_BOOLEAN = frozenset({TreeKind.BOOLEAN})
_ANY = frozenset(TreeKind)
_WIDTH = {"width": Param(default=1, minimum=0)}

#: Wire names -> engine specs.  Boolean-only engines first, then the
#: MIN/MAX family (which also evaluates Boolean trees, except SSS*).
ALGORITHMS: Dict[str, EngineSpec] = {
    "sequential": EngineSpec(sequential_solve, _BOOLEAN),
    "team": EngineSpec(
        team_solve, _BOOLEAN, {"processors": Param(default=4, minimum=1)},
        routed=True,
    ),
    "parallel": EngineSpec(parallel_solve, _BOOLEAN, _WIDTH, routed=True),
    "nsequential": EngineSpec(n_sequential_solve, _BOOLEAN),
    "nparallel": EngineSpec(n_parallel_solve, _BOOLEAN, _WIDTH),
    "machine": EngineSpec(
        simulate, _BOOLEAN, {"processors": Param(default=None, minimum=1)},
        counters=("ticks", "expansions"), shape=check_binary_nor,
    ),
    "alphabeta": EngineSpec(alpha_beta, _ANY),
    "sequential_ab": EngineSpec(sequential_alpha_beta, _ANY, routed=True),
    "parallel_ab": EngineSpec(parallel_alpha_beta, _ANY, _WIDTH, routed=True),
    "nsequential_ab": EngineSpec(n_sequential_alpha_beta, _ANY),
    "nparallel_ab": EngineSpec(n_parallel_alpha_beta, _ANY, _WIDTH),
    "scout": EngineSpec(scout, _ANY),
    "sss": EngineSpec(sss_star, frozenset({TreeKind.MINMAX})),
    "minimax": EngineSpec(minimax, _ANY),
}


def check_request(
    algo: str,
    tree: GameTree,
    params: Mapping[str, Any],
    *,
    routing: bool = False,
) -> EngineSpec:
    """The spec of ``algo`` if it can run ``params`` on ``tree``.

    Raises :class:`~repro.errors.InvalidRequestError` for an unknown
    algorithm or parameter, a value that is not an ``int`` (``bool``
    is not) or is below its minimum, a tree kind the engine does not
    take, a MIN/MAX tree with a NaN leaf (the backends disagree on its
    value and batches) and a tree its ``shape`` check rejects.
    ``routing`` also admits :data:`ROUTE_KEYWORDS` for the routed
    engines, with their values left to ``dispatch``.
    """
    spec = ALGORITHMS.get(algo)
    if spec is None:
        raise InvalidRequestError(
            f"unknown algorithm {algo!r}; expected one of "
            f"{sorted(ALGORITHMS)}"
        )
    for key, value in params.items():
        param = spec.params.get(key)
        if param is None:
            if routing and spec.routed and key in ROUTE_KEYWORDS:
                continue
            raise InvalidRequestError(
                f"{algo}: unknown parameter {key!r}; expected one of "
                f"{sorted(spec.params)}"
            )
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidRequestError(
                f"{algo}: parameter {key!r} must be an int, got {value!r}"
            )
        if value < param.minimum:
            raise InvalidRequestError(
                f"{algo}: parameter {key!r} must be >= {param.minimum}, "
                f"got {value}"
            )
    if tree.kind not in spec.kinds:
        raise InvalidRequestError(
            f"{algo} does not evaluate {tree.kind.value} trees"
        )
    if tree.kind is TreeKind.MINMAX and _has_nan_leaf(tree):
        raise InvalidRequestError(f"{algo}: a MIN/MAX leaf value is NaN")
    if spec.shape is not None:
        try:
            spec.shape(tree)
        except SimulationError as exc:
            raise InvalidRequestError(f"{algo}: {exc}") from exc
    return spec


def _has_nan_leaf(tree: GameTree) -> bool:
    """Whether any leaf of ``tree`` has the value NaN."""
    if type(tree) is UniformTree:
        return bool(np.isnan(tree.leaf_values_array).any())
    return any(
        math.isnan(tree.leaf_value(leaf)) for leaf in tree.iter_leaves()
    )


def run_algorithm(
    algo: str, tree: GameTree, params: Mapping[str, Any]
) -> EngineOutcome:
    """Check one evaluation against the table, then run it.

    Besides the wire parameters, ``params`` may carry the
    :data:`ROUTE_KEYWORDS` for the routed engines.
    """
    spec = check_request(algo, tree, params, routing=True)
    return spec.run(tree, params)


def evaluate_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point: dict in, dict out (pickle-safe).

    ``payload`` carries ``algo``, ``params`` and the tree dict from
    :func:`repro.trees.io.tree_to_dict`.
    """
    tree = tree_from_dict(payload["tree"])
    value, steps, work = run_algorithm(
        payload["algo"], tree, payload.get("params", {})
    )
    return {"value": value, "steps": steps, "work": work}
