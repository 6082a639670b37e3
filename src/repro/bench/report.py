"""EXPERIMENTS.md generator.

Each section is one paper-experiment spec
(:mod:`repro.bench.specs.experiments`): its paper claim and expected
shape, its gates with their verdicts from the newest committed
``benchmarks/history/BENCH_*.json``, and the full-profile table the
benchmark suite saved under ``benchmarks/results/``.  Regenerate
with::

    python -m repro report

after ``pytest benchmarks/`` has refreshed the tables.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from ..errors import WorkloadError
from .registry import BenchSpec, list_specs, select_specs
from .snapshot import (
    latest_complete_snapshot_path,
    load_snapshot,
    load_table_entry,
)


def load_table_text(experiment: str,
                    directory: Optional[str] = None) -> str:
    """The saved rendered table for one experiment, if present."""
    entry = load_table_entry(experiment, directory)
    if entry is None:
        return "(no saved results — run `pytest benchmarks/` first)"
    return entry["render"].rstrip()


HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction of every theorem/proposition-level claim in Karp & Zhang,
*On Parallel Evaluation of Game Trees* (SPAA 1989).  The paper is
theoretical and contains **no numbered tables or figures**; its
evaluation is the set of claims below, each of which we regenerate
empirically.  Absolute step counts depend on instance ensembles and
seeds (all fixed and printed); what must match the paper is the
*shape* of each result — who wins, how costs scale, where bounds sit.

All measurements use the paper's cost models (basic steps / leaf
evaluations / node expansions), since wall-clock parallel speed-up of
pure Python is unobservable under the GIL; the Section 7 machine is a
discrete-event simulation of the paper's message-passing design.

Each section below is one benchmark spec
(`src/repro/bench/specs/experiments.py`), the single statement of its
experiment: the paper claim, the expected shape, the gates that check
that shape on the table, and the table itself.  A gate's verdict comes
from the newest committed `benchmarks/history/BENCH_*.json` snapshot;
gates that read rows only the full profile builds are skipped in a
quick one.  Regenerate the tables with `pytest benchmarks/` (it runs
every spec in the full profile and asserts its gates), then rebuild
this file with `python -m repro report`.
"""


def _gates_text(spec: BenchSpec, snapshot: Dict[str, Any],
                source: str) -> str:
    """The spec's gates as a table, with the snapshot's verdicts."""
    verdicts = snapshot.get("specs", {}).get(spec.name, {}).get(
        "gates", {}
    )
    lines: List[str] = [
        f"**Gates** (verdicts from the {snapshot.get('profile')} "
        f"snapshot `{source}`):",
        "",
        "| gate | metric | op | bound | verdict |",
        "|---|---|---|---|---|",
    ]
    for gate in spec.gates:
        entry = verdicts.get(gate.name)
        verdict = (
            "unmeasured" if entry is None
            else "skipped" if entry["skipped"]
            else "pass" if entry["passed"] else "fail"
        )
        lines.append(
            f"| {gate.name} | {gate.metric} | {gate.op} | "
            f"{gate.bound:g} | {verdict} |"
        )
    return "\n".join(lines) + "\n"


def generate_experiments_md(
    results_dir: Optional[str] = None,
    out_path: Optional[str] = None,
) -> str:
    """Write EXPERIMENTS.md; returns the generated text.

    Gate verdicts come from the newest history snapshot that covers
    every registered spec.
    """
    path = latest_complete_snapshot_path(list_specs())
    if path is None:
        raise WorkloadError(
            "no BENCH snapshot in benchmarks/history/ covers every "
            "registered spec; run `repro bench --all --quick`"
        )
    snapshot = load_snapshot(path)
    source = "benchmarks/history/" + os.path.basename(path)
    parts = [HEADER]
    for spec in select_specs():
        exp = spec.expectation
        if exp is None:
            continue
        parts.append(f"\n## {spec.name.upper()}\n")
        parts.append(f"**Paper claim.** {exp.paper_claim}\n")
        parts.append(f"**Expected shape.** {exp.expected_shape}\n")
        parts.append(_gates_text(spec, snapshot, source))
        parts.append("**Measured.**\n")
        parts.append("```")
        parts.append(load_table_text(spec.name, results_dir))
        parts.append("```")
    text = "\n".join(parts) + "\n"
    if out_path is None:
        repo = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        out_path = os.path.join(repo, "EXPERIMENTS.md")
    with open(out_path, "w") as fh:
        fh.write(text)
    return text
