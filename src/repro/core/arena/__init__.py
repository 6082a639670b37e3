"""Columnar array-arena engines: struct-of-arrays tree evaluation.

The object-graph engines (:mod:`repro.core.solve_engine`,
:mod:`repro.core.alphabeta.engine`) pay Python pointer-chasing for
every settle/cascade sweep.  This subsystem lowers a tree once into
:class:`~repro.trees.canonical.CanonicalArrays` — preorder-indexed
numpy columns — and runs the paper's step loops as vectorised
level-batched sweeps over those columns:

* selection (budgeted width-w walk, unbounded liveness walk and the
  counting-sort ``most_urgent(p)`` cap) in :mod:`.selection`;
* the Boolean leaf-evaluation engines (Parallel/Bounded/Team/
  Saturation SOLVE) in :mod:`.boolean`;
* the MIN/MAX pruning process (sequential and parallel alpha-beta)
  in :mod:`.alphabeta`.

Each model has exactly one step loop
(:func:`~.boolean.run_solve`, :func:`~.alphabeta.run_alpha_beta`),
and it takes a leaf evaluator: the inline engines gather leaf values
from the lowered column, the shared-memory executor
(:mod:`repro.core.shm`) passes its worker pool.  The arena never
builds the object-graph state, so ``on_step=`` hooks need the
``rescan`` or ``incremental`` backend.

Everything here is step-for-step identical to the ``rescan`` and
``incremental`` backends: same per-step batches, same step/work
accounting, same ``recorder=`` call sequence.  The differential
property suite and the golden corpus pin that equivalence; the e27
benchmark gates the speed-up that justifies the subsystem.

Hot paths are vectorised, except on segments of at most
:data:`~.selection.SCALAR_MAX` entries, which run the same rules on
Python scalars (a numpy call costs more than a handful of entries).
Lint rule R12 (arena discipline) rejects per-node Python loops in this
package; the scalar paths' loops are each acknowledged.
"""

from .alphabeta import arena_alpha_beta
from .boolean import (
    arena_parallel_solve,
    arena_saturation_solve,
    arena_team_solve,
)
from .selection import most_urgent, select_frontier, select_width

__all__ = [
    "arena_parallel_solve",
    "arena_saturation_solve",
    "arena_team_solve",
    "arena_alpha_beta",
    "select_width",
    "select_frontier",
    "most_urgent",
]
