"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class TreeStructureError(ReproError):
    """A tree violates a structural requirement (arity, height, values)."""


class ModelViolationError(ReproError):
    """An algorithm broke an invariant of its cost model.

    Raised, for example, when a selection policy returns an empty batch
    while the root is still undetermined, or when a leaf is evaluated
    twice.
    """


class PruningInvariantError(ReproError):
    """The alpha-beta pruning process violated Theorem 2's invariant.

    The pruning rule of Karp & Zhang (Section 4) must preserve the root
    value of the pruned tree at every step; this error signals a bug in
    the engine (it is raised by the optional self-check machinery, never
    during normal unchecked operation).
    """


class SimulationError(ReproError):
    """The message-passing simulator reached an inconsistent state."""


class WorkloadError(ReproError):
    """A benchmark workload was mis-specified."""


class WorkerCrashError(ReproError):
    """An oracle worker kept failing after the runtime's retry budget.

    Raised by :class:`repro.models.executors.OracleRuntime` when a
    batch still has failing chunks after ``max_retries`` retry rounds —
    whether the workers died (broken process pool) or the oracle itself
    kept raising.  The last underlying exception is chained as
    ``__cause__``.
    """


class FaultPlanError(ReproError, ValueError):
    """A fault plan or schedule entry is mis-specified.

    Raised at *construction* time — negative ticks or sequence
    numbers, unknown fault kinds, non-positive durations, duplicate
    schedule entries — so a bad plan can never fail halfway through a
    chaos run.  The message always names the offending entry.

    Subclasses :class:`ValueError` for backward compatibility with
    callers that predate the typed hierarchy.
    """


class BackendUnsupportedError(ReproError, ValueError):
    """An engine was asked for a backend/executor pairing it cannot run.

    Raised at *entry-point* time — before any work happens — when a
    solver is handed a ``backend=`` or ``executor=`` combination that
    is syntactically valid but semantically impossible for that engine
    (the node-expansion model has no arena backend; the shared-memory
    executor needs the arena's flat columns; ``on_step`` hooks need
    the in-process object-graph loop).  The message always names the
    engine and the rejected combination.

    Subclasses :class:`ValueError` for backward compatibility with
    callers that predate the typed hierarchy.

    Attributes
    ----------
    engine / backend / executor:
        The engine name and the rejected ``backend=`` / ``executor=``
        arguments (``None`` when not part of the rejection).
    """

    def __init__(
        self,
        message: str,
        *,
        engine: "str | None" = None,
        backend: "str | None" = None,
        executor: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.engine = engine
        self.backend = backend
        self.executor = executor


class InvalidRequestError(ReproError, ValueError):
    """A serve request fails the engine table's check.

    Raised where the request is built (see
    :func:`repro.serve.engines.check_request`), so a bad request never
    reaches a shard.  The message names the algorithm and the entry.
    """


class DegradedRunError(ReproError):
    """The oracle runtime's circuit breaker tripped.

    Raised by :class:`repro.models.executors.OracleRuntime` after
    ``max_consecutive_rebuilds`` worker pools in a row broke (crashes
    or chunk timeouts) without a single clean dispatch round in
    between: the environment is considered too unhealthy to keep
    hammering, and the partial results gathered so far are carried
    along instead of being thrown away.

    Attributes
    ----------
    partial:
        The batch's result slots; unfinished entries are ``None``.
    completed / pending:
        How many payloads finished / are still outstanding.
    steps_completed:
        Filled in by the leaf evaluator of
        :func:`repro.models.oracle_runner.run_with_oracle` (and of
        :class:`repro.core.shm.ShmSession`) when the breaker trips
        mid-run: the number of evaluator calls that returned, which is
        the number of basic steps completed before the failing batch.
    """

    def __init__(
        self,
        message: str,
        *,
        partial: "list | None" = None,
        completed: int = 0,
        pending: int = 0,
    ) -> None:
        super().__init__(message)
        self.partial = partial if partial is not None else []
        self.completed = completed
        self.pending = pending
        self.steps_completed: "int | None" = None


class AllShardsDegradedError(DegradedRunError):
    """Every shard of a :class:`~repro.serve.service.ShardedBatchService`
    has degraded: there is nowhere left to fail work over to.

    Subclasses :class:`DegradedRunError` (the terminal-failure shape
    callers already handle) and additionally carries the service's
    :class:`~repro.serve.service.ServeStats` at the moment of
    collapse, so operators see how far the service got — requests
    served, failovers absorbed, which shards died in what order —
    without a traceback spelunk.  ``repro serve`` turns it into a
    clean non-zero exit.
    """

    def __init__(
        self,
        message: str,
        *,
        stats: "object | None" = None,
        pending: int = 0,
    ) -> None:
        super().__init__(message, pending=pending)
        self.stats = stats
