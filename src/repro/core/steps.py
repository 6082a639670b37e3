"""The basic-step driver every engine runs.

Every algorithm in the paper is the same basic step: select a batch of
live terminals, evaluate (leaf-evaluation model) or expand
(node-expansion model) all of them simultaneously, and let
determination — and, in the pruning process, pruning — propagate for
free.  :func:`run_steps` is that loop, written once.  An engine says
how to select, how to apply a batch and when it is done; the driver
owns the rest: the empty-batch check, the trace and evaluation order,
the logical-clock telemetry, the ``on_step`` hook and ``max_steps``.

The object-graph engines (``run_boolean``, ``run_minmax``,
``run_expansion``, ``run_expansion_minmax``) and the arena loops
(``run_solve``, ``run_alpha_beta``) all run here, which is what keeps
their traces and telemetry streams identical.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sized, Tuple, TypeVar

from ..errors import ModelViolationError
from ..models.accounting import ExecutionTrace
from ..telemetry import Recorder, live
from ..trees.base import NodeId


class Model(NamedTuple):
    """How the runs of one cost model report themselves."""

    #: telemetry track of the ``step`` spans and ``<track>.*`` metrics.
    track: str
    #: counter of the units one step processes.
    work: str
    #: what an empty batch failed to select, for the error message.
    empty: str


SOLVE = Model(
    "solve", "solve.leaves_evaluated",
    "leaves while the root is undetermined",
)
ALPHABETA = Model(
    "alphabeta", "alphabeta.leaves_evaluated",
    "leaves while the root is unfinished",
)
EXPANSION = Model(
    "expansion", "expansion.nodes_expanded",
    "frontier nodes while the root is undetermined",
)
#: Node-expansion alpha-beta runs without a recorder, so only its error
#: message is ever read.
EXPANSION_ALPHABETA = EXPANSION._replace(
    empty="frontier nodes while the root is unfinished"
)

#: A selected batch: a node-id list, or an arena index vector.
Batch = TypeVar("Batch", bound=Sized)


def run_steps(
    model: Model,
    policy: object,
    select: Callable[[], Batch],
    apply: Callable[[Batch], Tuple[List[NodeId], Optional[int]]],
    done: Callable[[], bool],
    *,
    keep_batches: bool,
    on_step: Optional[Callable[[int, List[NodeId]], None]] = None,
    max_steps: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> Tuple[ExecutionTrace, List[NodeId]]:
    """Run basic steps until ``done()``; return the trace and the order.

    Each step selects a batch, rejects an empty one with
    :class:`~repro.errors.ModelViolationError` naming ``policy`` (its
    ``name``, or the policy itself; the arena passes the name), applies
    it and records it.
    ``apply`` returns the node ids it processed, in batch order, and
    the number of nodes pruned — ``None`` for models without pruning,
    whose step spans then carry no ``pruned`` attribute.
    ``on_step(step, ids)`` runs after the step's telemetry; exceeding
    ``max_steps`` raises :class:`~repro.errors.ModelViolationError`.
    The recorder's logical clock is the basic-step count.
    """
    rec = live(recorder)
    track = model.track
    trace = ExecutionTrace(keep_batches=keep_batches)
    order: List[NodeId] = []

    step = 0
    while not done():
        batch = select()
        if not len(batch):
            name = getattr(policy, "name", policy)
            raise ModelViolationError(
                f"policy {name!r} selected no {model.empty}"
            )
        ids, pruned = apply(batch)
        trace.record(ids)
        order.extend(ids)
        if rec is not None:
            degree = len(ids)
            rec.advance(step + 1)
            if pruned is None:
                rec.add_span(
                    "step", step, step + 1, track=track, degree=degree
                )
            else:
                rec.add_span(
                    "step", step, step + 1, track=track,
                    degree=degree, pruned=pruned,
                )
            rec.count(model.work, degree)
            if pruned:
                rec.count(f"{track}.pruned", pruned)
            rec.sample(f"{track}.degree", degree, track=track)
        if on_step is not None:
            on_step(step, ids)
        step += 1
        if max_steps is not None and step > max_steps:
            raise ModelViolationError(f"exceeded {max_steps} steps")

    if rec is not None:
        rec.count(f"{track}.steps", step)
        rec.gauge(f"{track}.processors", trace.processors)
    return trace, order
