"""Shared fixtures for the benchmark suite.

Each paper-experiment ``bench_eXX`` file regenerates one experiment
table from DESIGN.md's index, asserts the paper claim's shape on its
rows, checks the registry spec's gates on that very table
(:func:`gate_parity`) and times a representative kernel with
pytest-benchmark.  The infra files (e21b, e23-e25, e27, e28) are thin:
their spec runner in :mod:`repro.bench.specs.infra` is the only
implementation, and :func:`spec_gates` runs it with wall-clock timing
and asserts every gate.

Saved tables funnel through the single store at
``benchmarks/results/tables.json`` (see
:func:`repro.bench.snapshot.save_table_entry`); ``EXPERIMENTS.md`` is
regenerated from that store, and the registry runner's
``BENCH_<date>.json`` snapshots under ``benchmarks/history/`` are the
perf trajectory of record.
"""

import io

import pytest

from repro.bench.registry import get_spec
from repro.bench.runner import failed_gates, run_benchmarks
from repro.bench.specs import metrics_from_table


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment(name): marks which paper experiment a "
        "benchmark regenerates",
    )


@pytest.fixture
def gate_parity():
    """Check a table against the gates of the spec that shares its name."""

    def check(table):
        spec = get_spec(table.experiment)
        metrics = metrics_from_table(table.experiment, table)
        assert spec.gates, "spec declares at least one gate"
        for gate in spec.gates:
            if gate.wallclock:
                continue
            assert gate.holds(metrics[gate.metric]), (
                gate.name, metrics[gate.metric], gate.op, gate.bound
            )

    return check


@pytest.fixture
def spec_gates():
    """Run one infra spec in the full profile with wall-clock timing,
    print its metrics and assert that no gate failed."""

    def check(name):
        doc = run_benchmarks(
            [name], profile="full", wallclock=True, progress=io.StringIO()
        )
        entry = doc["specs"][name]
        metrics = {**entry["metrics"], **entry["wallclock_metrics"]}
        print(f"\n{name}: " + " ".join(
            f"{metric}={value:.4g}" for metric, value in metrics.items()
        ))
        assert failed_gates(doc) == []

    return check
