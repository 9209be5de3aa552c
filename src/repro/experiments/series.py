"""Data containers and text rendering for reproduced figures/tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Series:
    """One line of a figure: name -> {x: y}."""

    name: str
    points: Dict[int, float] = field(default_factory=dict)

    def xs(self) -> List[int]:
        return sorted(self.points)

    def ys(self) -> List[float]:
        return [self.points[x] for x in self.xs()]

    def at(self, x: int) -> float:
        return self.points[x]


@dataclass
class FigureData:
    """A reproduced figure: several series over a shared x axis."""

    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)

    def get(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"no series named {name!r} in {self.title!r}")

    def xs(self) -> List[int]:
        out: set = set()
        for s in self.series:
            out.update(s.points)
        return sorted(out)

    def render(self, fmt: str = "{:.0f}") -> str:
        """Render as an aligned text table (one row per x)."""
        xs = self.xs()
        names = [s.name for s in self.series]
        header = [self.xlabel] + names
        rows: List[List[str]] = [header]
        for x in xs:
            row = [str(x)]
            for s in self.series:
                val = s.points.get(x)
                row.append(fmt.format(val) if val is not None else "-")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = [self.title, f"({self.ylabel})"]
        for i, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)


@dataclass
class TableData:
    """A reproduced table: named columns, list of rows."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def render(self) -> str:
        cells = [self.columns] + [[str(c) for c in row] for row in self.rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        lines = [self.title]
        for i, row in enumerate(cells):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)
