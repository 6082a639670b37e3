"""The registry runner behind ``repro bench --all``.

Executes a selection of :class:`~repro.bench.registry.BenchSpec`
deterministically and assembles one schema-versioned snapshot
document.  Primary metrics are model-step counts and ratios (seeded,
machine-invariant); wall-clock numbers appear only when explicitly
requested and live in a separate, band-free section.
"""

from __future__ import annotations

import datetime
import sys
from typing import Any, Dict, List, Optional, Sequence, TextIO

from ..errors import WorkloadError
from .registry import BenchSpec, SpecResult, select_specs
from .schema import validate_snapshot
from .snapshot import SNAPSHOT_SCHEMA

__all__ = ["run_benchmarks", "spec_entry", "failed_gates", "today"]


def today() -> str:
    """Local calendar date for snapshot naming (YYYY-MM-DD)."""
    return datetime.date.today().isoformat()


def _gate_entries(
    spec: BenchSpec,
    result: SpecResult,
    profile: str,
    wallclock: bool,
) -> Dict[str, Dict[str, Any]]:
    entries: Dict[str, Dict[str, Any]] = {}
    for gate in spec.gates:
        entry: Dict[str, Any] = {
            "metric": gate.metric,
            "op": gate.op,
            "bound": gate.bound,
            "wallclock": gate.wallclock,
        }
        if not gate.evaluated(profile, wallclock):
            # Wall-clock bounds are calibrated for the full profile,
            # and full-only gates read rows the quick overlay drops.
            entry.update(skipped=True, value=None, passed=None)
        else:
            source = (
                result.wallclock_metrics if gate.wallclock
                else result.metrics
            )
            if gate.metric not in source:
                raise WorkloadError(
                    f"{spec.name}: gate {gate.name!r} reads missing "
                    f"metric {gate.metric!r}"
                )
            value = float(source[gate.metric])
            entry.update(
                skipped=False, value=value, passed=gate.holds(value)
            )
        entries[gate.name] = entry
    return entries


def spec_entry(
    spec: BenchSpec,
    result: SpecResult,
    profile: str = "full",
    wallclock: bool = False,
) -> Dict[str, Any]:
    """One spec's snapshot entry: its metrics and gate verdicts."""
    return {
        "suite": spec.suite,
        "title": spec.title,
        "seed": spec.seed,
        "params": _jsonable(spec.effective_params(profile)),
        "metrics": {
            k: result.metrics[k] for k in sorted(result.metrics)
        },
        "digests": dict(sorted(result.digests.items())),
        "gates": _gate_entries(spec, result, profile, wallclock),
        "bands": {
            metric: spec.band_for(metric).to_dict()
            for metric in sorted(result.metrics)
        },
        "wallclock_metrics": dict(
            sorted(result.wallclock_metrics.items())
        ),
    }


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    suites: Optional[Sequence[str]] = None,
    profile: str = "full",
    wallclock: bool = False,
    date: Optional[str] = None,
    progress: Optional[TextIO] = None,
) -> Dict[str, Any]:
    """Run specs and return the snapshot document (validated)."""
    specs = select_specs(names=names, suites=suites)
    if not specs:
        raise WorkloadError("no benchmark specs selected")
    stream = progress if progress is not None else sys.stderr
    doc: Dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA,
        "date": date if date is not None else today(),
        "profile": profile,
        "wallclock": wallclock,
        "specs": {},
    }
    for spec in specs:
        print(f"bench: {spec.name} [{spec.suite}] ...",
              file=stream, flush=True)
        result = spec.run(profile=profile, wallclock=wallclock)
        doc["specs"][spec.name] = spec_entry(
            spec, result, profile, wallclock
        )
    problems = validate_snapshot(doc)
    if problems:
        raise WorkloadError(
            "runner produced an invalid snapshot: "
            + "; ".join(problems[:5])
        )
    return doc


def failed_gates(doc: Dict[str, Any]) -> List[str]:
    """``"spec:gate"`` labels of every evaluated-and-failed gate."""
    failures = []
    for spec_name, entry in sorted(doc.get("specs", {}).items()):
        for gate_name, gate in sorted(entry.get("gates", {}).items()):
            if gate.get("skipped") is False and not gate.get("passed"):
                failures.append(f"{spec_name}:{gate_name}")
    return failures


def _jsonable(value: Any) -> Any:
    """Params as JSON-stable values (tuples become lists)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
