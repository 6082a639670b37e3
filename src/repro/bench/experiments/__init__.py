"""Experiment implementations, one per DESIGN.md index entry.

Each is a plain function returning an
:class:`~repro.bench.harness.ExperimentTable`; its benchmark spec in
:mod:`repro.bench.specs.experiments` runs it and gates its table.
"""
