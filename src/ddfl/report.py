"""Benchmark reports: typed rows rendered as CSV and markdown tables."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

CSV_HEADER = ["metric", "backend", "dataset", "param", "value", "unit"]


@dataclass(frozen=True)
class MetricRow:
    metric: str
    backend: str
    dataset: str
    param: str
    value: int | float | str
    unit: str


def _format_value(value: int | float | str) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class MetricsReport:
    rows: list[MetricRow] = field(default_factory=list)

    def add(self, metric, backend, dataset, param, value, unit) -> None:
        self.rows.append(MetricRow(metric, backend, dataset, param, value, unit))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            writer.writerow(
                [row.metric, row.backend, row.dataset, row.param, _format_value(row.value), row.unit]
            )
        return out.getvalue()

    def to_markdown(self) -> str:
        cells = [CSV_HEADER] + [
            [row.metric, row.backend, row.dataset, row.param, _format_value(row.value), row.unit]
            for row in self.rows
        ]
        widths = [max(len(line[i]) for line in cells) for i in range(len(CSV_HEADER))]

        def render(line):
            return "| " + " | ".join(cell.ljust(w) for cell, w in zip(line, widths)) + " |"

        lines = [render(cells[0]), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        lines.extend(render(line) for line in cells[1:])
        return "\n".join(lines) + "\n"
