"""Shared-memory parallel leaf evaluation over the arena columns.

``repro.core.shm`` is the bridge from the paper's model-step speedups
to measured hardware: the arena's
:class:`~repro.trees.canonical.CanonicalArrays` columns are mapped
into :mod:`multiprocessing.shared_memory` blocks once per tree
(:mod:`~repro.core.shm.segments`), a worker pool built on
:class:`~repro.models.executors.OracleRuntime` evaluates each step's
leaf batch in place (:mod:`~repro.core.shm.pool`; its worker
processes outlive a clean session and the next one re-attaches
them), and a session
(:mod:`~repro.core.shm.engine`) runs the arena's own step loops with
that pool as their leaf evaluator — the same schedule code as
``backend="arena"``, with leaves evaluated in other processes.  The
solver entry points expose it as ``backend="arena", executor="shm"``;
experiment e28 measures the resulting wall-clock speed-up curve
against the c·(n+1) prediction.
"""

from .engine import ShmOptions, ShmRunResult, ShmSession
from .oracle import CalibratedOracle, identity_oracle
from .pool import ShmPool
from .segments import ArenaSegments, SegmentSpec

__all__ = [
    "ArenaSegments",
    "CalibratedOracle",
    "SegmentSpec",
    "ShmOptions",
    "ShmPool",
    "ShmRunResult",
    "ShmSession",
    "identity_oracle",
]
