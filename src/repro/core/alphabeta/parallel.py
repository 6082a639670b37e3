"""Sequential and Parallel alpha-beta as pruning-process policies.

``sequential_alpha_beta`` is the paper's leaf-evaluation-model statement
"at each step, evaluate the leftmost unfinished leaf of the current
pruned tree" — i.e. the width-0 policy.  ``parallel_alpha_beta`` is the
width-w generalisation of Section 4 (Theorem 3: width 1 gives a c(n+1)
speed-up on uniform MIN/MAX trees using n+1 processors).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...models.accounting import EvalResult
from ...telemetry import Recorder
from ...trees.base import GameTree
from ..arena import arena_alpha_beta
from ..parallel_solve import Route, dispatch
from .engine import (
    AlphaBetaWidthPolicy,
    IncrementalAlphaBetaWidthPolicy,
    run_minmax,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..shm import ShmOptions

_POLICIES = {
    "rescan": AlphaBetaWidthPolicy,
    "incremental": IncrementalAlphaBetaWidthPolicy,
}

# The pruning process runs on any tree kind (a Boolean tree's 0/1
# leaves are valid MIN/MAX values), so neither route checks the kind.
_SEQUENTIAL_ALPHA_BETA = Route(
    "sequential-alpha-beta", None, _POLICIES,
    run_minmax, arena_alpha_beta, "alpha_beta",
)

_PARALLEL_ALPHA_BETA = _SEQUENTIAL_ALPHA_BETA._replace(
    engine="parallel-alpha-beta"
)


def sequential_alpha_beta(
    tree: GameTree,
    *,
    keep_batches: bool = False,
    backend: str = "rescan",
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """The alpha-beta pruning procedure, one leaf per basic step."""
    return dispatch(
        _SEQUENTIAL_ALPHA_BETA, tree, 0,
        backend=backend, executor=executor, shm_options=shm_options,
        keep_batches=keep_batches, recorder=recorder,
    )


def parallel_alpha_beta(
    tree: GameTree,
    width: int = 1,
    *,
    keep_batches: bool = False,
    on_step=None,
    backend: str = "rescan",
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Parallel alpha-beta of the given width.

    ``backend`` selects the frontier engine: ``"rescan"`` (default,
    the per-step recomputation), ``"incremental"`` (a maintained
    frontier index, which pays off only on bounded machines) or
    ``"arena"`` (vectorised struct-of-arrays sweeps).  All produce
    identical per-step batches.

    ``executor`` selects where leaf batches are evaluated:
    ``"inline"`` (in-process, the default) or ``"shm"`` (a
    shared-memory worker pool over the arena columns, see
    :mod:`repro.core.shm`; requires ``backend="arena"``).

    ``on_step`` hooks observe the object-graph state, so they need
    ``backend="rescan"`` or ``"incremental"``.

    ``recorder`` attaches a telemetry sink (step spans with prune
    counts, degree samples, frontier counters).
    """
    return dispatch(
        _PARALLEL_ALPHA_BETA, tree, width,
        backend=backend, executor=executor, shm_options=shm_options,
        keep_batches=keep_batches, recorder=recorder, on_step=on_step,
    )
