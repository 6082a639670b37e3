"""Snapshot persistence: ``BENCH_<date>.json`` and the table store.

Two artifact families live here:

* **Benchmark snapshots** — the schema-versioned perf-trajectory
  files the runner emits and the diff engine compares.  Serialization
  is canonical (sorted keys, two-space indent, ``allow_nan=False``,
  trailing newline) so a snapshot is byte-identical across runs with
  the same seed, which is itself an acceptance gate.
* **The experiment table store** — ``benchmarks/results/tables.json``,
  the single file every :class:`~repro.bench.harness.ExperimentTable`
  save funnels through (replacing the historical per-experiment
  ``.txt``/``.csv`` pairs).  ``EXPERIMENTS.md`` is regenerated from
  this store.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Sequence

from ..errors import WorkloadError

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_PREFIX",
    "dumps_snapshot",
    "write_snapshot",
    "load_snapshot",
    "history_dir",
    "snapshot_path",
    "list_snapshots",
    "latest_snapshot_path",
    "latest_complete_snapshot_path",
    "TABLE_STORE_NAME",
    "table_store_path",
    "load_table_store",
    "save_table_entry",
    "load_table_entry",
]

#: Version tag every snapshot carries; bump on breaking layout change.
SNAPSHOT_SCHEMA = "repro-bench/v1"

#: File-name prefix of committed trajectory points.
SNAPSHOT_PREFIX = "BENCH_"

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def _repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


def history_dir() -> str:
    """``benchmarks/history`` — the committed BENCH_*.json trajectory."""
    return os.path.join(_repo_root(), "benchmarks", "history")


def snapshot_path(date: str, directory: Optional[str] = None) -> str:
    if not _DATE_RE.match(date):
        raise WorkloadError(
            f"snapshot date {date!r} is not YYYY-MM-DD"
        )
    if directory is None:
        directory = history_dir()
    return os.path.join(directory, f"{SNAPSHOT_PREFIX}{date}.json")


def list_snapshots(directory: Optional[str] = None) -> List[str]:
    """Committed snapshot paths, oldest first (dates sort lexically)."""
    if directory is None:
        directory = history_dir()
    if not os.path.isdir(directory):
        return []
    names = [
        name for name in os.listdir(directory)
        if name.startswith(SNAPSHOT_PREFIX) and name.endswith(".json")
    ]
    return [os.path.join(directory, name) for name in sorted(names)]


def latest_snapshot_path(
    directory: Optional[str] = None,
) -> Optional[str]:
    paths = list_snapshots(directory)
    return paths[-1] if paths else None


def latest_complete_snapshot_path(
    specs: Sequence[str],
    directory: Optional[str] = None,
) -> Optional[str]:
    """The newest snapshot that covers every name in ``specs``.

    A ``--spec``/``--suite`` run saved into the history is not a
    trajectory point: reading its gates would report every other spec
    as unmeasured.
    """
    for path in reversed(list_snapshots(directory)):
        if set(specs) <= set(load_snapshot(path).get("specs", {})):
            return path
    return None


def dumps_snapshot(doc: Dict[str, Any]) -> str:
    """Canonical byte form: sorted keys, indent 2, no NaN, final LF."""
    return json.dumps(
        doc, sort_keys=True, indent=2, allow_nan=False
    ) + "\n"


def write_snapshot(doc: Dict[str, Any], path: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_snapshot(doc))
    return path


def _reject_constant(token: str) -> float:
    raise WorkloadError(
        f"snapshot contains non-finite constant {token!r}"
    )


def load_snapshot(path: str) -> Dict[str, Any]:
    """Parse a snapshot, rejecting NaN/Infinity tokens outright."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise WorkloadError(
                f"snapshot {path} is not valid JSON: {exc}"
            ) from exc
    if not isinstance(doc, dict):
        raise WorkloadError(f"snapshot {path} is not a JSON object")
    return doc


# ---------------------------------------------------------------------------
# experiment table store
# ---------------------------------------------------------------------------

TABLE_STORE_NAME = "tables.json"


def table_store_path(directory: Optional[str] = None) -> str:
    if directory is None:
        directory = os.path.join(_repo_root(), "benchmarks", "results")
    return os.path.join(directory, TABLE_STORE_NAME)


def load_table_store(
    directory: Optional[str] = None,
) -> Dict[str, Dict[str, str]]:
    path = table_store_path(directory)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        store = json.load(fh)
    if not isinstance(store, dict):
        raise WorkloadError(f"table store {path} is not a JSON object")
    return store


def save_table_entry(
    experiment: str,
    render: str,
    csv: str,
    directory: Optional[str] = None,
) -> str:
    """Insert/replace one experiment's rendered table in the store."""
    store = load_table_store(directory)
    store[experiment] = {"render": render, "csv": csv}
    path = table_store_path(directory)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(store, sort_keys=True, indent=2) + "\n")
    return path


def load_table_entry(
    experiment: str, directory: Optional[str] = None
) -> Optional[Dict[str, str]]:
    return load_table_store(directory).get(experiment)
