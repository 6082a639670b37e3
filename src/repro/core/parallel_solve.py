"""Parallel SOLVE — the paper's main algorithm (Section 2, Theorem 1).

At each step, evaluate *all live leaves with pruning number at most w*.
The pruning number of a live leaf is the total number of live
left-siblings of its ancestors; leaves with small pruning number are the
ones Sequential SOLVE is "likely" to reach soon, so the width-w policy
is a cascade of left-to-right searches running ahead of the leftmost
one.

Width 0 coincides with Sequential SOLVE.  On a uniform tree of height
n, width 1 uses at most n + 1 processors and achieves a speed-up of
c(n+1) over Sequential SOLVE on *every* instance (Theorem 1).

A selection policy (:class:`~repro.core.policies.WidthPolicy`) is the
rule; a backend is how the rule is run, and an executor is where the
leaves are evaluated.  Two step-for-step identical backends run it.
The default ``"rescan"`` backend recomputes the selection with a
budgeted DFS every step (:func:`repro.core.policies.budgeted_walk`),
the literal reading of the paper's definition.  ``"arena"`` runs the
same policy as vectorised sweeps over the lowered tree
(:mod:`repro.core.arena`); it is the default for the bounded machine,
where re-walking the whole width-w region every step to feed
``max_processors`` leaves costs most.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from ..errors import BackendUnsupportedError, TreeStructureError
from ..models.accounting import EvalResult
from ..telemetry import Recorder
from ..trees.base import GameTree
from ..trees.lazy import LazyTree
from ..types import TreeKind
from .arena import arena_solve
from .policies import LeftmostPolicy, WidthPolicy
from .solve_engine import run_boolean

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .shm import ShmOptions

#: Selection backends accepted by the solver entry points.
BACKENDS = ("rescan", "arena")

#: Leaf executors accepted by the solver entry points: ``"inline"``
#: evaluates leaves in-process (the model-step default), ``"shm"``
#: dispatches each step's batch to a shared-memory worker pool
#: (:mod:`repro.core.shm`; requires ``backend="arena"``).
EXECUTORS = ("inline", "shm")


def resolve_backend(backend: str) -> str:
    """Validate a ``backend=`` argument, returning it unchanged."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def resolve_executor(executor: str) -> str:
    """Validate an ``executor=`` argument, returning it unchanged."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    return executor


class Route(NamedTuple):
    """Where one solver entry point runs on each backend and executor.

    ``policy`` alone reads the engine's own arguments (``*args`` and
    ``**params`` of :func:`dispatch`); every path then takes the
    policy object it built.
    """

    #: Engine name carried by :class:`~repro.errors.BackendUnsupportedError`.
    engine: str
    #: Tree kind the engine needs (``None``: any kind).
    kind: Optional[TreeKind]
    #: The selection-policy class, built once per call.
    policy: Callable[..., Any]
    #: The object-graph step loop (``run_boolean`` or ``run_minmax``).
    run: Callable[..., EvalResult]
    #: The inline arena entry (``arena_solve`` or ``arena_alpha_beta``).
    arena: Callable[..., EvalResult]
    #: The :class:`~repro.core.shm.ShmSession` method running the same
    #: arena loop with the session's pool as leaf evaluator.
    session: str


def dispatch(
    route: Route,
    tree: GameTree,
    *args: Any,
    backend: Optional[str],
    executor: str,
    shm_options: "Optional[ShmOptions]",
    keep_batches: bool,
    recorder: Optional[Recorder],
    on_step=None,
    **params: Any,
) -> EvalResult:
    """Validate one solver call, then run it on its backend/executor.

    Every check happens before any lowering, shared memory or worker
    process exists: backend and executor names, the support matrix
    (:class:`~repro.errors.BackendUnsupportedError`), the engine's
    arguments and the tree kind
    (:class:`~repro.errors.TreeStructureError`).

    ``backend=None`` picks the default: the arena for a bounded machine
    (a ``max_processors`` cap) on a fixed tree without an ``on_step``
    hook, where rescan re-walks the whole width-w region every step to
    feed a few leaves; rescan for every other run.  A
    :class:`~repro.trees.lazy.LazyTree` counts as growing: lowering it
    would generate every node.  Both backends give the same batches.
    Then it builds ``route.policy(*args, **params)`` once and hands that
    object to the path that runs:

    * ``rescan``: the object-graph step loop (``route.run``);
    * ``arena``: the arena step loop, leaves evaluated inline
      (``route.arena``);
    * ``arena`` + ``shm``: a :class:`~repro.core.shm.ShmSession` running
      the same arena loop with its worker pool as leaf evaluator
      (``route.session``).
    """
    engine = route.engine
    if backend is None:
        bounded = params.get("max_processors") is not None
        fixed = not isinstance(tree, LazyTree)
        arena = bounded and fixed and on_step is None
        backend = "arena" if arena else "rescan"
    backend = resolve_backend(backend)
    executor = resolve_executor(executor)
    if executor == "shm" and backend != "arena":
        raise BackendUnsupportedError(
            f"engine {engine!r} supports executor='shm' only on the "
            f"arena backend (shared memory maps the lowered columns); "
            f"got backend={backend!r}",
            engine=engine, backend=backend, executor=executor,
        )
    if on_step is not None and backend == "arena":
        raise BackendUnsupportedError(
            f"engine {engine!r} cannot combine backend='arena' with an "
            f"on_step hook (the hook observes the object-graph state, "
            f"which the arena never builds); use backend='rescan'",
            engine=engine, backend=backend, executor=executor,
        )
    # The policy is the only reader of the engine's arguments: building
    # it checks them, with the same messages on every backend.
    policy = route.policy(*args, **params)
    if route.kind is not None and tree.kind is not route.kind:
        raise TreeStructureError(
            f"engine {engine!r} needs a {route.kind.value} tree, got a "
            f"{tree.kind.value} tree"
        )
    if backend == "rescan":
        return route.run(
            tree, policy,
            keep_batches=keep_batches, on_step=on_step, recorder=recorder,
        )
    if executor == "inline":
        return route.arena(
            tree, policy, keep_batches=keep_batches, recorder=recorder
        )
    from .shm import ShmSession

    with ShmSession(tree, shm_options, recorder=recorder) as session:
        return getattr(session, route.session)(
            policy, keep_batches=keep_batches
        )


_PARALLEL_SOLVE = Route(
    "parallel-solve", TreeKind.BOOLEAN,
    WidthPolicy,
    run_boolean, arena_solve, "solve",
)

_SATURATION_SOLVE = Route(
    "saturation-solve", TreeKind.BOOLEAN,
    LeftmostPolicy,
    run_boolean, arena_solve, "solve",
)


def parallel_solve(
    tree: GameTree,
    width: int = 1,
    *,
    max_processors: Optional[int] = None,
    keep_batches: bool = False,
    on_step=None,
    backend: Optional[str] = None,
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Run Parallel SOLVE of the given width on a Boolean tree.

    ``max_processors`` caps the per-step batch at the most urgent
    leaves (smallest pruning number, leftmost on ties) — the practical
    fixed-machine variant the paper's Section 7 closes with.

    ``backend`` selects the frontier engine: ``"rescan"`` (the
    per-step recomputation) or ``"arena"`` (vectorised
    struct-of-arrays sweeps).  Both produce identical per-step
    batches.  The default, ``None``, runs a bounded machine on a fixed
    tree without an ``on_step`` hook on the arena and everything else
    on rescan (see :func:`dispatch`).

    ``executor`` selects where leaf batches are evaluated:
    ``"inline"`` (in-process, the default) or ``"shm"`` (a
    shared-memory worker pool over the arena columns, see
    :mod:`repro.core.shm`; requires ``backend="arena"`` and tuned via
    ``shm_options``).  Batches, steps and values are identical across
    executors for pure oracles.

    ``on_step`` hooks observe the object-graph state, so they need
    ``backend="rescan"``.

    ``recorder`` attaches a telemetry sink (step spans and degree
    samples); the default records nothing.
    """
    return dispatch(
        _PARALLEL_SOLVE, tree, width,
        max_processors=max_processors,
        backend=backend, executor=executor, shm_options=shm_options,
        keep_batches=keep_batches, recorder=recorder, on_step=on_step,
    )


def saturation_solve(
    tree: GameTree,
    *,
    keep_batches: bool = False,
    backend: str = "rescan",
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Evaluate every live leaf at every step (unbounded parallelism)."""
    return dispatch(
        _SATURATION_SOLVE, tree,
        backend=backend, executor=executor, shm_options=shm_options,
        keep_batches=keep_batches, recorder=recorder,
    )


def span(tree: GameTree) -> int:
    """The instance's span: steps under unbounded parallelism.

    No live-leaf policy can finish in fewer steps, so the speed-up of
    any width/processor configuration is capped by S(T) / span(T).
    """
    return saturation_solve(tree).num_steps
