"""Declarative metric extraction from experiment tables.

A paper spec describes its metrics as data: a mapping of metric name
to an *extractor* tuple applied to the
:class:`~repro.bench.harness.ExperimentTable` its runner builds.
Supported forms::

    ("count",)                      # number of table rows
    ("count", ref)                  # rows ref keeps
    (agg, ref)                      # aggregate of one column
    ("ratio_" + agg, num, den)      # aggregate of num[i] / den[i]
    ("step_" + agg, ref, *group)    # aggregate of ref[i+1] / ref[i]
                                    # over each group's consecutive rows
    ("span_" + agg, ref, *group)    # aggregate over the groups of
                                    # their last row over their first
    ("notes", text)                 # notes that contain ``text``

with ``agg`` one of ``min`` / ``max`` / ``mean`` / ``sum`` /
``first`` / ``last``.  A *ref* is a column name or a function of the
row (a column -> cell mapping) returning a number, or ``None`` to
leave the row out.  A *group* is the kept rows that share the named
columns' cells, in table order; ``step_`` and ``span_`` read the
groups of two or more rows (one row has nothing to compare).  So
"non-decreasing within each group" is ``step_min >= 1``, and "the
last row beats the first" is ``span_min`` above 1.  Boolean cells
coerce to 0/1 so dominance columns (e.g. ``"sss* <= ab"``) gate
cleanly via ``min >= 1``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ...errors import WorkloadError
from ..harness import ExperimentTable

__all__ = ["extract_metrics"]

Extractor = Tuple[Any, ...]


def _aggregate(agg: str, values: List[float]) -> float:
    if not values:
        raise WorkloadError("metric extractor saw an empty column")
    if agg == "min":
        return float(min(values))
    if agg == "max":
        return float(max(values))
    if agg == "mean":
        return float(sum(values) / len(values))
    if agg == "sum":
        return float(sum(values))
    if agg == "first":
        return float(values[0])
    if agg == "last":
        return float(values[-1])
    raise WorkloadError(f"unknown extractor aggregate {agg!r}")


def _keyed(
    table: ExperimentTable, ref: Any, group: Sequence[str] = ()
) -> List[Tuple[Tuple, float]]:
    """``(group key, value)`` of every row ``ref`` keeps, in order."""
    columns = list(table.columns)
    for name in ([] if callable(ref) else [ref]) + list(group):
        if name not in columns:
            raise WorkloadError(
                f"[{table.experiment}] has no column {name!r}"
            )
    keyed = []
    for row in table.rows:
        cells = dict(zip(columns, row))
        value = ref(cells) if callable(ref) else cells[ref]
        if value is None:
            continue
        try:
            number = float(value)
        except ValueError as exc:
            raise WorkloadError(
                f"[{table.experiment}] {ref!r} is not numeric: {exc}"
            ) from exc
        keyed.append((tuple(cells[name] for name in group), number))
    return keyed


def _column(table: ExperimentTable, ref: Any) -> List[float]:
    return [value for _, value in _keyed(table, ref)]


def _groups(
    table: ExperimentTable, ref: Any, group: Sequence[str]
) -> List[List[float]]:
    """The values of each group of two or more kept rows."""
    groups: Dict[Tuple, List[float]] = {}
    for key, value in _keyed(table, ref, group):
        groups.setdefault(key, []).append(value)
    return [values for values in groups.values() if len(values) > 1]


def extract_metrics(
    table: ExperimentTable,
    extractors: Mapping[str, Extractor],
) -> Dict[str, float]:
    """Apply every extractor to ``table``; returns metric mapping."""
    metrics: Dict[str, float] = {}
    for name, how in extractors.items():
        kind = how[0]
        if kind == "count":
            rows = _column(table, how[1]) if len(how) > 1 else table.rows
            metrics[name] = float(len(rows))
        elif kind == "notes":
            metrics[name] = float(
                sum(how[1] in note for note in table.notes)
            )
        elif kind.startswith("ratio_"):
            num = _column(table, how[1])
            den = _column(table, how[2])
            metrics[name] = _aggregate(
                kind[len("ratio_"):],
                [a / b for a, b in zip(num, den)],
            )
        elif kind.startswith("step_"):
            metrics[name] = _aggregate(kind[len("step_"):], [
                b / a
                for values in _groups(table, how[1], how[2:])
                for a, b in zip(values, values[1:])
            ])
        elif kind.startswith("span_"):
            metrics[name] = _aggregate(kind[len("span_"):], [
                values[-1] / values[0]
                for values in _groups(table, how[1], how[2:])
            ])
        else:
            metrics[name] = _aggregate(kind, _column(table, how[1]))
    return metrics
