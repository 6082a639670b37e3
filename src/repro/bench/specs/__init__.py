"""The declarative benchmark spec registry (e01-e28).

Importing this package registers every spec:

* :mod:`repro.bench.specs.experiments` — the 23 paper-experiment
  specs: each runs its experiment function, reads its metrics off the
  table with declarative extractors, gates the paper claim's shape and
  carries the expectation EXPERIMENTS.md reports;
* :mod:`repro.bench.specs.infra` — the 6 infrastructure specs
  (frontier backends, fault overhead, telemetry overhead, serving
  throughput, arena backend speedup, shared-memory hardware speedup)
  with custom runners;
* :mod:`repro.bench.specs.gateway` — the gateway overload soak
  (e26): 2x-capacity chaos run gated on determinism, zero wrong
  answers and shard self-healing.

:func:`gate_bound` reads one registered acceptance bound (the tests
pin the historical bars with it).  The pytest files under
``benchmarks/`` hold no bounds of their own: each runs its spec and
asserts that no gate failed.
"""

from __future__ import annotations

from ..registry import get_spec
from . import (  # noqa: F401  (registration imports)
    experiments,
    gateway,
    infra,
)

__all__ = ["gate_bound"]


def gate_bound(spec_name: str, gate_name: str) -> float:
    """The registered bound of one gate (e.g. ``("e23", "overhead_drop")``)."""
    return get_spec(spec_name).gate_bound(gate_name)
