"""Ordered sweep records with stable columns and their CSV form."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class SweepTable:
    """Ordered (parameter, observables...) records with stable columns."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self, fmt: str = "%r", header_lines: Iterable[str] = ()) -> str:
        """Render as CSV (comma, dot decimal, one header row).

        ``fmt`` is the per-value printf format; the default repr keeps the
        shortest round-trip representation.
        """
        buf = io.StringIO()
        for line in header_lines:
            buf.write(f"# {line}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(fmt % v for v in row) + "\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "SweepTable":
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        cols = tuple(lines[0].split(","))
        rows = tuple(tuple(float(v) for v in ln.split(",")) for ln in lines[1:])
        return SweepTable(columns=cols, rows=rows)
