"""Timing wrappers around the library's public layer entry points.

A traced run replaces a handful of public functions and methods, at the
module or class attributes their callers look them up on, with wrappers
that record one wall-clock span per call.  Nothing inside the library
changes: the spans are taken from outside, around each call.

Spans nest through a stack, so every span knows how much of its own
duration its children covered; a layer's *self time* is its span time
minus that.  The op entry points (``serve()``, ``parallel_solve``,
``parallel_alpha_beta``) are spans too, and their self time is what no
inner layer caught: the traced run reports it as the residual, apart
from the named layers.  The settle kernels are methods of the arena
run-state classes (``_BooleanArena``, ``_AlphaBetaArena``), which the
public engines and the shm session both drive; they are wrapped so that
settle time is measured rather than left as the entry points' rest.  Totals are kept for every span; the spans themselves are
also kept in memory (up to a cap) on a :class:`repro.telemetry.
InMemoryRecorder` and written at exit with the telemetry package's JSONL
and Chrome exporters.  Recorder timestamps are integer microseconds
since the tracer started (the Chrome exporter scales its logical tick
by 1000, so its timeline shows one microsecond as one millisecond).

Serve workers run in other processes.  Their decode and engine time
comes back through :func:`timed_payload`, the worker function the
traced serve runs hand to ``ShardedBatchService(oracle=...)``: it
returns its own clock reads with each outcome, and the wrapper around
``OracleRuntime.evaluate`` turns them into child spans on a ``worker``
track.  ``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, which
is shared by the forked workers, so their timestamps line up.
"""

from __future__ import annotations

import functools
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.core
import repro.core.alphabeta
from repro.core.arena import alphabeta as arena_alphabeta
from repro.core.arena import boolean as arena_boolean
from repro.core.arena.alphabeta import _AlphaBetaArena
from repro.core.arena.boolean import _BooleanArena
from repro.core.shm import ShmPool, ShmSession
from repro.core.shm import engine as shm_engine
from repro.models.executors import OracleRuntime
from repro.serve import engines as serve_engines
from repro.serve import service as serve_service
from repro.serve.cache import ResultCache
from repro.telemetry import InMemoryRecorder

__all__ = ["Tracer", "installed", "timed_payload", "SERVE", "SOLVE"]

#: Outcome key under which :func:`timed_payload` returns its clock reads.
WORKER_TIMES = "_perfbench_worker_times"

#: Spans kept for the exported trace; totals cover every span anyway.
MAX_EVENTS = 50_000


def timed_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker function of the traced serve runs.

    The same two steps as :func:`repro.serve.engines.evaluate_payload`
    (rebuild the tree, run the engine), with a clock read around each.
    Module-level so a process pool can pickle it by reference.
    """
    t0 = time.perf_counter()
    tree = serve_engines.tree_from_dict(payload["tree"])
    t1 = time.perf_counter()
    value, steps, work = serve_engines.run_algorithm(
        payload["algo"], tree, payload.get("params", {})
    )
    t2 = time.perf_counter()
    return {
        "value": value, "steps": steps, "work": work,
        WORKER_TIMES: (t0, t1, t2),
    }


class Tracer:
    """Span stack, per-name totals and the in-memory trace."""

    def __init__(self) -> None:
        self.recorder = InMemoryRecorder(wallclock=True)
        self.origin = time.perf_counter()
        self.dropped = 0
        #: open spans: [name, start, seconds covered by children]
        self._stack: List[List[Any]] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: self time of the outermost spans (the op entry points): the
        #: part of each op no inner layer caught
        self.outer_self = 0.0
        #: seconds spent closing spans (totals and the in-memory trace),
        #: charged to no layer: op time minus this is what layers split
        self.bookkeeping_s = 0.0
        # Serve shard stage, per serve() call: [first payload encode,
        # last runtime.evaluate end, evaluate seconds].
        self.stage: Optional[List[float]] = None
        self.stage_eval_s = 0.0
        self.stage_wall_s = 0.0
        #: cache-miss payloads seen by OracleRuntime.evaluate (sized later).
        self.payloads: List[Dict[str, Any]] = []
        #: leaf-batch sizes seen by ShmPool.evaluate_batch.
        self.leaf_batches: List[int] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> List[Any]:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame: List[Any], **attrs: object) -> float:
        """Close the innermost span; returns its end time."""
        end = time.perf_counter()
        self._stack.pop()
        name, start, covered = frame
        self._account(name, start, end, covered, "client", attrs)
        done = time.perf_counter()
        self.bookkeeping_s += done - end
        if self._stack:
            self._stack[-1][2] += done - start
        else:
            self.outer_self += end - start - covered
        return end

    def child(
        self, name: str, start: float, end: float, track: str,
    ) -> None:
        """A span timed elsewhere (a worker) inside the innermost span."""
        mark = time.perf_counter()
        self._account(name, start, end, 0.0, track, {})
        spent = time.perf_counter() - mark
        self.bookkeeping_s += spent
        if self._stack:
            self._stack[-1][2] += end - start + spent

    def _account(
        self, name: str, start: float, end: float, covered: float,
        track: str, attrs: Dict[str, object],
    ) -> None:
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - covered
        self.calls[name] += 1
        if len(self.recorder.events) >= MAX_EVENTS:
            self.dropped += 1
            return
        t0 = int((start - self.origin) * 1e6)
        t1 = int((end - self.origin) * 1e6)
        self.recorder.add_span(name, t0, t1, track=track, **attrs)
        self.recorder.advance(t1)

    # -- derived -----------------------------------------------------------
    def payload_bytes(self) -> List[int]:
        """Pickled size of every cache-miss payload the run dispatched."""
        return [len(pickle.dumps(p)) for p in self.payloads]


# -- wrappers -----------------------------------------------------------------
Wrapper = Callable[[Tracer, Callable[..., Any]], Callable[..., Any]]


def _span(name: str) -> Wrapper:
    def make(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)
        return timed
    return make


def _serve(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def timed(self: Any, requests: Any) -> Any:
        tracer.stage = [0.0, 0.0, 0.0]
        frame = tracer.begin("serve.service")
        try:
            return fn(self, requests)
        finally:
            tracer.end(frame, requests=len(requests))
            first, last, evaluated = tracer.stage
            tracer.stage = None
            if evaluated > 0:
                tracer.stage_eval_s += evaluated
                tracer.stage_wall_s += last - first
    return timed


def _encode(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.begin("serve.encode")
        if tracer.stage is not None and tracer.stage[0] == 0.0:
            tracer.stage[0] = frame[1]
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(frame)
    return timed


def _runtime_evaluate(
    tracer: Tracer, fn: Callable[..., Any]
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def timed(self: Any, payloads: Any) -> Any:
        items = list(payloads)
        frame = tracer.begin("runtime.evaluate")
        try:
            results = fn(self, items)
            for payload, outcome in zip(items, results):
                if isinstance(outcome, dict) and WORKER_TIMES in outcome:
                    t0, t1, t2 = outcome.pop(WORKER_TIMES)
                    tracer.child("serve.decode", t0, t1, "worker")
                    tracer.child(
                        "serve.engine." + payload["algo"], t1, t2, "worker"
                    )
                    tracer.payloads.append(payload)
            return results
        finally:
            start = frame[1]
            end = tracer.end(frame, batch=len(items))
            if tracer.stage is not None:
                tracer.stage[1] = end
                tracer.stage[2] += end - start
    return timed


def _leaf_eval(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def timed(self: Any, batch_idx: Any) -> Any:
        size = int(batch_idx.shape[0])
        tracer.leaf_batches.append(size)
        frame = tracer.begin("shm.leaf_eval")
        try:
            return fn(self, batch_idx)
        finally:
            tracer.end(frame, batch=size)
    return timed


Patch = Tuple[Any, str, Wrapper]

#: Serve path: key, cache, encode and dispatch; worker decode and
#: engine time arrive through timed_payload.
SERVE: Tuple[Patch, ...] = (
    (serve_service.ShardedBatchService, "serve", _serve),
    (serve_service, "request_key", _span("serve.request.key")),
    (ResultCache, "get", _span("serve.cache")),
    (ResultCache, "put", _span("serve.cache")),
    (serve_service, "request_to_dict", _encode),
    (OracleRuntime, "evaluate", _runtime_evaluate),
)

#: Solve path: the two engine entry points, lowering, arena selection,
#: settle (Boolean cascade, alpha-beta finish and prune), and the shm
#: session lifecycle and leaf barrier.
SOLVE: Tuple[Patch, ...] = (
    (repro.core, "parallel_solve", _span("core.parallel_solve")),
    (
        repro.core.alphabeta, "parallel_alpha_beta",
        _span("core.parallel_alpha_beta"),
    ),
    (arena_boolean, "canonical_arrays", _span("trees.lower")),
    (arena_alphabeta, "canonical_arrays", _span("trees.lower")),
    (shm_engine, "canonical_arrays", _span("trees.lower")),
    (arena_boolean, "select_width", _span("arena.select")),
    (arena_boolean, "select_frontier", _span("arena.select")),
    (arena_boolean, "most_urgent", _span("arena.select")),
    (arena_alphabeta, "select_width", _span("arena.select")),
    (shm_engine, "select_width", _span("arena.select")),
    (shm_engine, "select_frontier", _span("arena.select")),
    (shm_engine, "most_urgent", _span("arena.select")),
    (_BooleanArena, "evaluate_batch", _span("arena.settle")),
    (_AlphaBetaArena, "finish_leaves", _span("arena.settle")),
    (_AlphaBetaArena, "prune_to_fixpoint", _span("arena.settle")),
    (ShmSession, "__init__", _span("shm.lifecycle")),
    (ShmSession, "close", _span("shm.lifecycle")),
    (ShmPool, "evaluate_batch", _leaf_eval),
    (OracleRuntime, "evaluate", _runtime_evaluate),
)


@contextmanager
def installed(tracer: Tracer, patches: Tuple[Patch, ...]) -> Iterator[None]:
    """Swap the wrappers in for the block; restore the originals after."""
    saved = []
    try:
        for owner, attr, wrapper in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper(tracer, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
