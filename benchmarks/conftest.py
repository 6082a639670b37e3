"""Shared fixtures for the benchmark suite.

Every ``bench_eXX`` file is its registry spec (:mod:`repro.bench.specs`)
plus at most one pytest-benchmark kernel: :func:`spec_gates` runs the
spec in the full profile with wall-clock timing and asserts that no
gate failed.  The spec is the only statement of its experiment — a
paper spec's runner builds the table and its gates check the paper
claim's shape on it — so the files assert nothing of their own.

A paper spec's table is saved into the single store at
``benchmarks/results/tables.json`` (see
:func:`repro.bench.snapshot.save_table_entry`); ``EXPERIMENTS.md`` is
regenerated from that store with ``python -m repro report``, and the
registry runner's ``BENCH_<date>.json`` snapshots under
``benchmarks/history/`` are the perf trajectory of record.
"""

import pytest

from repro.bench.registry import get_spec
from repro.bench.runner import failed_gates, spec_entry


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment(name): marks which paper experiment a "
        "benchmark regenerates",
    )


@pytest.fixture
def spec_gates():
    """Run one spec in the full profile with wall-clock timing, save
    and print its table (paper specs), print its metrics and assert
    that no gate failed."""

    def check(name):
        spec = get_spec(name)
        result = spec.run(profile="full", wallclock=True)
        if result.table is not None:
            result.table.save()
            print("\n" + result.table.render())
        entry = spec_entry(spec, result, "full", wallclock=True)
        metrics = {**entry["metrics"], **entry["wallclock_metrics"]}
        print(f"\n{name}: " + " ".join(
            f"{metric}={value:.4g}" for metric, value in metrics.items()
        ))
        assert failed_gates({"specs": {name: entry}}) == []

    return check
