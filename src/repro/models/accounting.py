"""Cost accounting for the paper's two models.

Both models charge one unit per *basic step*; the quantities the
theorems talk about are all derived from the per-step **parallel
degree** (number of leaves evaluated, or nodes expanded, at that step):

* running time  = number of steps,
* total work    = sum of degrees,
* processors    = maximum degree over the run,
* ``t_k``       = number of steps of degree exactly k (Propositions 3/6).

:class:`ExecutionTrace` records the degree sequence — and, optionally,
the full batches for instrumentation-heavy analyses such as the
base-path code checks of Proposition 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generic, List, Optional, Sequence, TypeVar

from ..errors import ModelViolationError

V = TypeVar("V")


class ExecutionTrace:
    """Per-step record of a model execution."""

    def __init__(self, keep_batches: bool = False):
        self.degrees: List[int] = []
        self.batches: Optional[List[tuple]] = [] if keep_batches else None
        #: wall-clock seconds per step, for runs driven by a real
        #: executor runtime (empty for pure model-step runs).
        self.step_seconds: List[float] = []

    def record(
        self, batch: Sequence, *, seconds: Optional[float] = None
    ) -> None:
        """Record one basic step that processed ``batch`` units.

        ``seconds`` optionally attaches the step's wall-clock cost
        (oracle-backed runs); model-step runs leave it unset.
        """
        if not batch:
            raise ModelViolationError("a basic step must do some work")
        self.degrees.append(len(batch))
        if self.batches is not None:
            self.batches.append(tuple(batch))
        if seconds is not None:
            self.step_seconds.append(seconds)

    # -- derived quantities ---------------------------------------------
    @property
    def num_steps(self) -> int:
        """Running time in the model (number of basic steps)."""
        return len(self.degrees)

    @property
    def total_work(self) -> int:
        """Total units of work (leaves evaluated / nodes expanded)."""
        return sum(self.degrees)

    @property
    def processors(self) -> int:
        """Maximum parallel degree over the execution."""
        return max(self.degrees) if self.degrees else 0

    @property
    def wall_seconds(self) -> float:
        """Total recorded wall-clock seconds (0.0 for model-step runs)."""
        return sum(self.step_seconds)

    def degree_histogram(self) -> Dict[int, int]:
        """``{k: t_k}`` — the step counts by parallel degree."""
        hist: Dict[int, int] = {}
        for deg in self.degrees:
            hist[deg] = hist.get(deg, 0) + 1
        return hist

    def steps_of_degree(self, k: int) -> int:
        """``t_k``: number of steps of parallel degree exactly ``k``."""
        return sum(1 for deg in self.degrees if deg == k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionTrace(steps={self.num_steps}, "
            f"work={self.total_work}, processors={self.processors})"
        )


@dataclass
class EvalResult(Generic[V]):
    """Outcome of running an evaluation algorithm on a tree.

    Attributes
    ----------
    value:
        The computed root value.
    trace:
        The per-step cost record.
    evaluated:
        Leaves evaluated (or nodes expanded), in completion order by
        step; within a step, in selection order.
    """

    value: V
    trace: ExecutionTrace
    evaluated: List = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return self.trace.num_steps

    @property
    def total_work(self) -> int:
        return self.trace.total_work

    @property
    def processors(self) -> int:
        return self.trace.processors
