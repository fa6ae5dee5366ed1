"""Result containers and table formatting shared by all experiments."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Row:
    label: str
    values: dict[str, object] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[Row]
    notes: str = ""

    def value(self, row_label: str, column: str):
        for row in self.rows:
            if row.label == row_label:
                return row.values.get(column)
        raise KeyError(f"no row {row_label!r} in {self.experiment}")

    def format_table(self) -> str:
        """Render as an aligned text table (the bench harness prints this)."""
        headers = ["", *self.columns]
        body = []
        for row in self.rows:
            cells = [row.label]
            for column in self.columns:
                value = row.values.get(column)
                cells.append(_fmt(value))
            body.append(cells)
        widths = [
            max(len(line[i]) for line in [headers, *body])
            for i in range(len(headers))
        ]
        lines = [self.title]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
        )
        lines.append("  ".join("-" * w for w in widths))
        for cells in body:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
            )
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)
