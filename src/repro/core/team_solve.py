"""Team SOLVE — the naive parallelization (Section 2, Proposition 1).

At each step the team evaluates the leftmost ``p`` live leaves.  On
uniform trees this guarantees only an Omega(sqrt(p)) speed-up over
Sequential SOLVE, and instances exist where sqrt(p) is also an upper
bound (see :func:`repro.trees.generators.team_solve_hard_instance`).
It is the baseline that Parallel SOLVE's width strategy improves on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..models.accounting import EvalResult
from ..telemetry import Recorder
from ..trees.base import GameTree
from ..types import TreeKind
from .arena import arena_solve
from .parallel_solve import Route, dispatch
from .policies import LeftmostPolicy
from .solve_engine import run_boolean

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .shm import ShmOptions

_TEAM_SOLVE = Route(
    "team-solve", TreeKind.BOOLEAN,
    LeftmostPolicy,
    run_boolean, arena_solve, "solve",
)


def team_solve(
    tree: GameTree,
    processors: int,
    *,
    keep_batches: bool = False,
    backend: str = "rescan",
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Run Team SOLVE with ``processors`` processors on a Boolean tree.

    ``backend`` selects the frontier engine and ``executor`` the leaf
    evaluation site (see
    :func:`repro.core.parallel_solve.parallel_solve`).
    """
    return dispatch(
        _TEAM_SOLVE, tree, processors,
        backend=backend, executor=executor, shm_options=shm_options,
        keep_batches=keep_batches, recorder=recorder,
    )
