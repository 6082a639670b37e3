"""The recorder protocol and its two built-in implementations.

A *recorder* is the single sink every instrumented code path talks to.
Instrumentation records three shapes of data:

* **spans** — named intervals ``[start, end)`` on a *track* (one track
  per algorithm stage, or per Section-7 level processor), the unit the
  Chrome/Perfetto exporter turns into timeline bars;
* **instant events** — point-in-time markers on a track;
* **metrics** — counters, gauges and histograms accumulated in a
  :class:`~repro.telemetry.metrics.MetricsRegistry` (cheap enough for
  per-transition hot paths; they do not append trace events).  The
  :meth:`Recorder.sample` call additionally appends a counter *event*
  for quantities worth a Perfetto time series (per-tick degree).

All timestamps are **logical**: basic-step or tick counts advanced
explicitly via :meth:`Recorder.advance`.  Nothing in this module reads
a wall clock, so a recording is bit-identical across replays of the
same seeded run (the R2/R7 determinism story).  Wall-clock *values*
(chunk latencies, step seconds) are an opt-in enrichment layer: they
are only recorded when the recorder was constructed with
``wallclock=True``, which no CLI command does: library callers opt in
(the ``perfbench`` tracer does) and export the recording with
:func:`repro.telemetry.cli.emit_jsonl_trace`.

The default :class:`NullRecorder` is zero-overhead by construction:
engines normalise a ``None``/disabled recorder to ``None`` once (see
:func:`live`) and skip every instrumentation branch with a single
``is not None`` test — the tier-1 behaviour of an uninstrumented run
is provably unchanged, which the e24 benchmark spec gates.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from .metrics import MetricsRegistry

#: Deterministically ordered span/event attributes.
AttrItems = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded fact: a span, an instant, or a metric sample.

    ``kind`` is one of ``"span"``, ``"instant"`` or ``"counter"``
    (sampled time series); the registry's final counter/gauge/histogram
    states are appended by the exporters, not stored as events.
    ``start == end`` for instants and samples.
    """

    kind: str
    name: str
    track: str
    start: int
    end: int
    value: Optional[float] = None
    attrs: AttrItems = ()


def _freeze(attrs: Dict[str, object]) -> AttrItems:
    """Attribute dict -> sorted item tuple (deterministic order)."""
    return tuple(sorted(attrs.items()))


@runtime_checkable
class Recorder(Protocol):
    """What every instrumented code path may call.

    Implementations must be cheap when ``enabled`` is ``False`` —
    engines use :func:`live` to skip instrumentation entirely in that
    case, so a disabled recorder's methods are never on a hot path.
    """

    #: ``False`` means "drop everything" (engines skip instrumentation).
    enabled: bool
    #: opt-in: wall-clock-derived values may be recorded.
    wallclock: bool

    def advance(self, t: int) -> None:
        """Move the logical clock to ``t`` (monotonically)."""
        ...

    def span(
        self, name: str, *, track: str = "main", **attrs: object
    ) -> ContextManager[None]:
        """Span from the clock at entry to the clock at exit."""
        ...

    def add_span(
        self,
        name: str,
        start: int,
        end: int,
        *,
        track: str = "main",
        **attrs: object,
    ) -> None:
        """Record a completed span ``[start, end)`` explicitly."""
        ...

    def event(
        self, name: str, *, track: str = "main", **attrs: object
    ) -> None:
        """Record an instant event at the current clock."""
        ...

    def count(
        self, name: str, value: float = 1, **attrs: object
    ) -> None:
        """Add ``value`` to a monotonic counter (registry only)."""
        ...

    def gauge(self, name: str, value: float, **attrs: object) -> None:
        """Set a gauge to its latest value (registry only)."""
        ...

    def observe(self, name: str, value: float, **attrs: object) -> None:
        """Record one histogram observation (registry only)."""
        ...

    def sample(
        self, name: str, value: float, *, track: str = "metrics"
    ) -> None:
        """Counter time-series point: registry *and* a trace event."""
        ...


class NullRecorder:
    """The default recorder: drops everything, costs nothing.

    Engines treat any recorder with ``enabled = False`` as "no
    instrumentation at all" (:func:`live` normalises it to ``None``),
    so a run with the default recorder executes the exact pre-telemetry
    code path.
    """

    enabled: bool = False
    wallclock: bool = False

    def advance(self, t: int) -> None:
        return None

    def span(
        self, name: str, *, track: str = "main", **attrs: object
    ) -> ContextManager[None]:
        return nullcontext()

    def add_span(
        self,
        name: str,
        start: int,
        end: int,
        *,
        track: str = "main",
        **attrs: object,
    ) -> None:
        return None

    def event(
        self, name: str, *, track: str = "main", **attrs: object
    ) -> None:
        return None

    def count(self, name: str, value: float = 1, **attrs: object) -> None:
        return None

    def gauge(self, name: str, value: float, **attrs: object) -> None:
        return None

    def observe(self, name: str, value: float, **attrs: object) -> None:
        return None

    def sample(
        self, name: str, value: float, *, track: str = "metrics"
    ) -> None:
        return None


#: Shared default instance (stateless, safe to reuse everywhere).
NULL_RECORDER = NullRecorder()


def live(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Normalise a recorder argument for hot-path use.

    Returns the recorder when it will actually keep data, else
    ``None`` — so engines pay one ``is not None`` test per
    instrumentation site instead of a dynamic no-op dispatch.
    """
    if recorder is None or not recorder.enabled:
        return None
    return recorder


class InMemoryRecorder:
    """Keeps every span/event in order plus a metrics registry.

    Timestamps are logical (advanced by the instrumented run), so two
    replays of the same seeded run produce identical event lists and
    identical registry states — the exporters turn that into
    byte-identical artifacts.
    """

    enabled: bool = True

    def __init__(self, *, wallclock: bool = False) -> None:
        self.wallclock = wallclock
        self.clock: int = 0
        self.events: List[TraceEvent] = []
        self.metrics = MetricsRegistry()

    # -- clock -------------------------------------------------------------
    def advance(self, t: int) -> None:
        if t > self.clock:
            self.clock = t

    # -- spans / events ----------------------------------------------------
    @contextmanager
    def _span_cm(
        self, name: str, track: str, attrs: Dict[str, object]
    ) -> Iterator[None]:
        start = self.clock
        try:
            yield
        finally:
            self.events.append(TraceEvent(
                "span", name, track, start, self.clock,
                attrs=_freeze(attrs),
            ))

    def span(
        self, name: str, *, track: str = "main", **attrs: object
    ) -> ContextManager[None]:
        return self._span_cm(name, track, attrs)

    def add_span(
        self,
        name: str,
        start: int,
        end: int,
        *,
        track: str = "main",
        **attrs: object,
    ) -> None:
        self.events.append(TraceEvent(
            "span", name, track, start, end, attrs=_freeze(attrs)
        ))

    def event(
        self, name: str, *, track: str = "main", **attrs: object
    ) -> None:
        t = self.clock
        self.events.append(TraceEvent(
            "instant", name, track, t, t, attrs=_freeze(attrs)
        ))

    # -- metrics -----------------------------------------------------------
    def count(self, name: str, value: float = 1, **attrs: object) -> None:
        self.metrics.count(name, value)

    def gauge(self, name: str, value: float, **attrs: object) -> None:
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float, **attrs: object) -> None:
        self.metrics.observe(name, value)

    def sample(
        self, name: str, value: float, *, track: str = "metrics"
    ) -> None:
        self.metrics.gauge(name, value)
        t = self.clock
        self.events.append(TraceEvent(
            "counter", name, track, t, t, value=float(value)
        ))

    # -- introspection -----------------------------------------------------
    def spans(self, track: Optional[str] = None) -> List[TraceEvent]:
        """All span events, optionally restricted to one track."""
        return [
            e for e in self.events
            if e.kind == "span" and (track is None or e.track == track)
        ]

    def tracks(self) -> List[str]:
        """Track names in first-appearance order."""
        seen: Dict[str, None] = {}
        for e in self.events:
            seen.setdefault(e.track, None)
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InMemoryRecorder(clock={self.clock}, "
            f"events={len(self.events)})"
        )


@dataclass
class ActivityCoalescer:
    """Turns per-tick busy/idle observations into alternating spans.

    The Section-7 machine observes every level every tick; emitting one
    span per tick would bloat the trace and render as confetti.  The
    coalescer keeps the current run (busy or idle) open and emits one
    ``"busy"`` / ``"idle"`` span per maximal run on :meth:`finish` or
    when the state flips.
    """

    recorder: Recorder
    track: str
    _state: Optional[bool] = None
    _since: int = 0
    _busy_ticks: int = field(default=0)

    def observe(self, t: int, busy: bool) -> None:
        """Record that the tick starting at ``t`` was busy/idle."""
        if busy:
            self._busy_ticks += 1
        if self._state is None:
            self._state, self._since = busy, t
            return
        if busy != self._state:
            self._emit(t)
            self._state, self._since = busy, t

    def finish(self, t_end: int) -> None:
        """Close the open run at ``t_end`` (idempotent)."""
        if self._state is not None and t_end > self._since:
            self._emit(t_end)
        self._state = None

    @property
    def busy_ticks(self) -> int:
        return self._busy_ticks

    def _emit(self, until: int) -> None:
        self.recorder.add_span(
            "busy" if self._state else "idle",
            self._since,
            until,
            track=self.track,
        )
