"""Declarative benchmark registry: specs, tolerance bands and gates.

A :class:`BenchSpec` describes one benchmark as data — its workload
seed, full/quick parameter profiles, the metrics it produces, the
per-metric tolerance :class:`Band` the diff engine applies between
snapshots, and the :class:`Gate` predicates CI enforces.  A paper
experiment's spec is its one statement: its runner builds the
experiment table, its extractors read the metrics off that table, and
its :class:`Expectation` is what EXPERIMENTS.md says of it.  The
runner (:mod:`repro.bench.runner`) executes specs; the diff engine
(:mod:`repro.bench.diff`) compares the resulting ``BENCH_<date>.json``
snapshots; the bench files under ``benchmarks/`` run the specs and
assert their gates, so a gate has exactly one implementation.

Design rule: **primary (gated) metrics are model-step counts and
ratios** — deterministic under a fixed seed, identical across
machines.  Wall-clock seconds are opt-in (lint rule R7), recorded
separately, and never diffed with bands.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import WorkloadError
from .harness import ExperimentTable

__all__ = [
    "Band",
    "Gate",
    "Expectation",
    "BenchSpec",
    "SpecResult",
    "register_spec",
    "get_spec",
    "list_specs",
    "list_suites",
    "select_specs",
    "clear_registry",
    "temporary_registry",
    "PROFILES",
]

#: Recognised execution profiles; ``quick`` overlays reduced params.
PROFILES = ("full", "quick")

#: Band directions: which drift counts as a regression.
_DIRECTIONS = ("any", "up_bad", "down_bad")

#: Gate comparison operators.
_OPS = (">=", "<=")


@dataclass(frozen=True)
class Band:
    """Per-metric tolerance for snapshot diffs.

    ``rel``/``abs_tol`` widen the acceptance interval around the old
    value; ``direction`` says which side of the interval is a
    regression (``"up_bad"`` for overheads, ``"down_bad"`` for
    speed-ups, ``"any"`` for counts that must simply stay put).
    """

    rel: float = 0.0
    abs_tol: float = 0.0
    direction: str = "any"

    def __post_init__(self) -> None:
        if self.rel < 0 or self.abs_tol < 0:
            raise WorkloadError("band tolerances must be >= 0")
        if self.direction not in _DIRECTIONS:
            raise WorkloadError(
                f"band direction {self.direction!r} not in {_DIRECTIONS}"
            )

    def allowance(self, old: float) -> float:
        """The absolute drift allowed around ``old``."""
        return max(self.abs_tol, self.rel * abs(old))

    def classify(self, old: float, new: float) -> str:
        """``"ok"``, ``"regression"`` or ``"improvement"`` for a drift."""
        drift = new - old
        if abs(drift) <= self.allowance(old):
            return "ok"
        if self.direction == "any":
            return "regression"
        worse_up = self.direction == "up_bad"
        if (drift > 0) == worse_up:
            return "regression"
        return "improvement"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rel": self.rel,
            "abs": self.abs_tol,
            "direction": self.direction,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Band":
        return cls(
            rel=float(data.get("rel", 0.0)),
            abs_tol=float(data.get("abs", 0.0)),
            direction=str(data.get("direction", "any")),
        )


@dataclass(frozen=True)
class Gate:
    """A pass/fail predicate over one metric.

    ``wallclock`` gates are only evaluated when the runner measured
    wall-clock (and only in the full profile — quick-profile workloads
    are too small for the calibrated bounds to be meaningful).
    ``full_only`` gates read rows only the full profile builds (a
    height or width the quick overlay drops); quick runs record them
    as skipped.
    """

    name: str
    metric: str
    op: str
    bound: float
    wallclock: bool = False
    full_only: bool = False

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise WorkloadError(f"gate op {self.op!r} not in {_OPS}")

    def evaluated(self, profile: str, wallclock: bool) -> bool:
        """Whether a run in ``profile`` can check this gate."""
        if self.wallclock and not wallclock:
            return False
        return profile == "full" or not (self.wallclock or self.full_only)

    def holds(self, value: float) -> bool:
        if self.op == ">=":
            return value >= self.bound
        return value <= self.bound


@dataclass
class SpecResult:
    """What one spec execution produced.

    ``metrics`` are the deterministic, gated numbers; ``digests`` are
    exact-match strings (content hashes of determinism artifacts);
    ``wallclock_metrics`` are informational seconds/ratios present
    only when wall-clock measurement was requested; ``table`` is the
    experiment table a paper spec's runner built.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    wallclock_metrics: Dict[str, float] = field(default_factory=dict)
    table: Optional[ExperimentTable] = None


@dataclass(frozen=True)
class Expectation:
    """What the paper claims and what shape the measurements must have."""

    paper_claim: str
    expected_shape: str


#: runner(params, wallclock) -> SpecResult
SpecRunner = Callable[[Dict[str, Any], bool], SpecResult]


@dataclass
class BenchSpec:
    """One declaratively-registered benchmark."""

    name: str
    suite: str
    title: str
    seed: int
    runner: SpecRunner
    #: full-profile parameters (the benchmark files' scale).
    params: Dict[str, Any] = field(default_factory=dict)
    #: quick-profile overrides, merged over ``params``.
    quick_params: Dict[str, Any] = field(default_factory=dict)
    gates: Tuple[Gate, ...] = ()
    #: fnmatch pattern -> band; first match wins, else default_band.
    bands: Dict[str, Band] = field(default_factory=dict)
    default_band: Band = field(default_factory=Band)
    #: metric -> extractor over the runner's table (specs.tables).
    extractors: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    #: the claim EXPERIMENTS.md reports for a paper experiment.
    expectation: Optional[Expectation] = None

    def effective_params(self, profile: str) -> Dict[str, Any]:
        if profile not in PROFILES:
            raise WorkloadError(
                f"unknown profile {profile!r}; expected one of {PROFILES}"
            )
        merged = dict(self.params)
        if profile == "quick":
            merged.update(self.quick_params)
        return merged

    def band_for(self, metric: str) -> Band:
        for pattern, band in self.bands.items():
            if fnmatchcase(metric, pattern):
                return band
        return self.default_band

    def gate_bound(self, gate_name: str) -> float:
        for gate in self.gates:
            if gate.name == gate_name:
                return gate.bound
        raise WorkloadError(
            f"spec {self.name!r} has no gate {gate_name!r}; "
            f"known: {[g.name for g in self.gates]}"
        )

    def run(self, profile: str = "full",
            wallclock: bool = False) -> SpecResult:
        result = self.runner(self.effective_params(profile), wallclock)
        if result.table is not None:
            from .specs.tables import extract_metrics

            result.metrics.update(
                extract_metrics(result.table, self.extractors)
            )
        _check_metrics(self.name, result.metrics)
        _check_metrics(self.name, result.wallclock_metrics)
        return result


def _check_metrics(spec: str, metrics: Dict[str, float]) -> None:
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(
            value, (int, float)
        ):
            raise WorkloadError(
                f"{spec}: metric {key!r} is {type(value).__name__}, "
                "expected int or float"
            )
        if value != value or value in (float("inf"), float("-inf")):
            raise WorkloadError(
                f"{spec}: metric {key!r} is {value!r} (NaN/Inf is "
                "not snapshot-able)"
            )


_REGISTRY: Dict[str, BenchSpec] = {}


def register_spec(spec: BenchSpec) -> BenchSpec:
    """Add a spec to the registry; names must be unique."""
    if spec.name in _REGISTRY:
        raise WorkloadError(
            f"benchmark spec {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def clear_registry() -> None:
    """Drop every registered spec (tests only)."""
    _REGISTRY.clear()


@contextmanager
def temporary_registry() -> Iterator[None]:
    """Swap in an empty registry for the duration (tests only).

    Restores the previous contents on exit so module-level
    registrations (which only happen once per process) survive.
    """
    # Force the one-time spec-package import *before* the swap, else
    # the registrations land in the temporary registry and are wiped
    # on exit (imports never re-run).
    saved = dict(_loaded())
    _REGISTRY.clear()
    try:
        yield
    finally:
        _REGISTRY.clear()
        _REGISTRY.update(saved)


def _loaded() -> Dict[str, BenchSpec]:
    # Importing the spec package populates the registry on first use.
    from . import specs  # noqa: F401

    return _REGISTRY


def get_spec(name: str) -> BenchSpec:
    registry = _loaded()
    if name not in registry:
        raise WorkloadError(
            f"unknown benchmark spec {name!r}; known: "
            f"{sorted(registry)}"
        )
    return registry[name]


def list_specs() -> List[str]:
    return sorted(_loaded())


def list_suites() -> List[str]:
    return sorted({spec.suite for spec in _loaded().values()})


def select_specs(
    names: Optional[Sequence[str]] = None,
    suites: Optional[Sequence[str]] = None,
) -> List[BenchSpec]:
    """Specs filtered by explicit names and/or suite names, sorted."""
    registry = _loaded()
    if names:
        selected = [get_spec(name) for name in names]
    else:
        selected = list(registry.values())
    if suites:
        known = set(list_suites())
        for suite in suites:
            if suite not in known:
                raise WorkloadError(
                    f"unknown suite {suite!r}; known: {sorted(known)}"
                )
        selected = [s for s in selected if s.suite in suites]
    return sorted(selected, key=lambda s: s.name)
