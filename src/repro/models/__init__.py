"""Cost models: accounting primitives and optional executors."""

from .accounting import EvalResult, ExecutionTrace
from .executors import OracleRuntime, RuntimeStats
from .oracle_runner import OracleRunResult, run_with_oracle

__all__ = [
    "EvalResult",
    "ExecutionTrace",
    "OracleRuntime",
    "RuntimeStats",
    "OracleRunResult",
    "run_with_oracle",
]
