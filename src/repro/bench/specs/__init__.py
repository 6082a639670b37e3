"""The declarative benchmark spec registry (e01-e28).

Importing this package registers every spec:

* :mod:`repro.bench.specs.experiments` — the 22 paper-experiment
  specs, wrapping the experiment functions via declarative table
  metric extractors;
* :mod:`repro.bench.specs.infra` — the 6 infrastructure specs
  (frontier backends, fault overhead, telemetry overhead, serving
  throughput, arena backend speedup, shared-memory hardware speedup)
  with custom runners;
* :mod:`repro.bench.specs.gateway` — the gateway overload soak
  (e26): 2x-capacity chaos run gated on determinism, zero wrong
  answers and shard self-healing.

:func:`gate_bound` reads one registered acceptance bound (the tests
pin the historical bars with it).  The pytest files under
``benchmarks/`` hold no bounds of their own: the infra files run their
spec and the paper-experiment files check the spec's gates on their
table (:func:`metrics_from_table`).
"""

from __future__ import annotations

from typing import Dict

from ..harness import ExperimentTable
from ..registry import get_spec
from . import (  # noqa: F401  (registration imports)
    experiments,
    gateway,
    infra,
)
from .experiments import TABLE_EXTRACTORS
from .tables import extract_metrics

__all__ = ["gate_bound", "metrics_from_table", "TABLE_EXTRACTORS"]


def gate_bound(spec_name: str, gate_name: str) -> float:
    """The registered bound of one gate (e.g. ``("e23", "overhead_drop")``)."""
    return get_spec(spec_name).gate_bound(gate_name)


def metrics_from_table(
    name: str, table: ExperimentTable
) -> Dict[str, float]:
    """Registry metrics recomputed from a standalone experiment table.

    Gate-parity helper: a paper-experiment benchmark file builds its
    table once, then feeds it through the extractors the registry spec
    declares — identical metrics (and gate verdicts) by construction.
    """
    return extract_metrics(table, TABLE_EXTRACTORS[name])
