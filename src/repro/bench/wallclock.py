"""Wall-clock timing primitives for the benchmark specs.

Everything else in this repository reports model-step counts; this
module is where real elapsed time is allowed (R2 exempts ``bench/``).
The specs' wall-clock metrics (``repro bench --spec NAME --wallclock``)
are timed with :func:`best_of` or :func:`median_seconds`, and the
backend comparisons check :func:`run_signature` identity before they
time a cell.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Any, Callable, Tuple


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Fastest elapsed seconds for ``fn`` across ``repeats`` runs.

    The shared timing primitive for every wall-clock benchmark in the
    repository (benchmarks import it from here so raw clock reads stay
    inside this R7-exempt module).
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def median_seconds(
    fn: Callable[[], Any], repeats: int = 3
) -> Tuple[float, Any]:
    """Median elapsed seconds across ``repeats`` runs + last result."""
    samples = []
    result: Any = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return median(samples), result


def run_signature(result) -> Tuple[Any, ...]:
    """What two runs of one schedule must agree on, step for step.

    Value, per-step degrees and batches, and the evaluation order;
    ``result`` must come from a ``keep_batches=True`` run.
    """
    return (
        result.value, result.trace.degrees, result.trace.batches,
        result.evaluated,
    )
