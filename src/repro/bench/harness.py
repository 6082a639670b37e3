"""Experiment tables and their persistence.

Every experiment in DESIGN.md's index is a function returning an
:class:`ExperimentTable`, run by its benchmark spec
(:mod:`repro.bench.specs.experiments`), which gates the paper claim's
shape on the rows.  ``pytest benchmarks/`` and ``repro run`` persist
the rendered table under ``benchmarks/results/`` so EXPERIMENTS.md can
quote measured numbers verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import WorkloadError


@dataclass
class ExperimentTable:
    """A rendered-result table for one experiment."""

    experiment: str
    title: str
    columns: Sequence[str]
    rows: List[Sequence] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise WorkloadError(
                f"row has {len(values)} values, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List:
        """All values of one column, for shape assertions."""
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                return f"{v:.3f}"
            return str(v)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(col)), *(len(r[i]) for r in cells)) if cells
            else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [f"[{self.experiment}] {self.title}"]
        header = "  ".join(
            str(col).rjust(w) for col, w in zip(self.columns, widths)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append(
                "  ".join(v.rjust(w) for v, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The table as CSV (columns header + rows), for plotting."""
        import csv
        import io

        buf = io.StringIO()
        # The csv module's default "\r\n" would mix line endings
        # into the table store, which holds "\n" everywhere else.
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def save(self, directory: Optional[str] = None) -> str:
        """Persist render + CSV into the single table store.

        Every save funnels through
        :func:`repro.bench.snapshot.save_table_entry` — one
        ``tables.json`` per results directory instead of the historical
        per-experiment ``.txt``/``.csv`` pairs.
        """
        from .snapshot import save_table_entry

        return save_table_entry(
            self.experiment, self.render(), self.to_csv(),
            directory=directory,
        )
