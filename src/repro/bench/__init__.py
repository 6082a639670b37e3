"""Benchmark harness: experiment tables and the benchmark spec registry."""

from .harness import ExperimentTable

__all__ = ["ExperimentTable"]
