"""Result containers and text rendering shared by figures, benches, and CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def _plain(values: Sequence) -> list:
    """``values`` with NumPy scalars replaced by the Python numbers they
    hold, so CSV cells read ``0.25``, not ``np.float64(0.25)``."""
    return [v.item() if isinstance(v, np.generic) else v for v in values]


@dataclass
class FigureResult:
    """A regenerated paper figure or table: an index column plus named
    series, renderable as an aligned text table."""

    figure_id: str
    title: str
    index_label: str
    index: list
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: str = ""
    paper_reference: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, values in self.series.items():
            if len(values) != len(self.index):
                raise ValueError(
                    f"series {name!r} has {len(values)} values for "
                    f"{len(self.index)} index entries"
                )
            self.series[name] = _plain(values)

    def add_series(self, name: str, values: Sequence[float]) -> None:
        values = _plain(values)
        if len(values) != len(self.index):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(self.index)} index entries"
            )
        self.series[name] = values

    def mean(self, name: str) -> float:
        values = self.series[name]
        return sum(values) / len(values)

    def to_csv(self) -> str:
        """Comma-separated rendering (header + one row per index entry),
        for downstream plotting tools."""
        lines = [",".join([self.index_label] + list(self.series))]
        for i, idx in enumerate(self.index):
            row = [str(idx)] + [repr(self.series[name][i]) for name in self.series]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_text(self, float_format: str = "{:.4f}") -> str:
        """Aligned table: index column then one column per series."""
        headers = [self.index_label] + list(self.series)
        rows = []
        for i, idx in enumerate(self.index):
            idx_text = (
                float_format.format(idx) if isinstance(idx, float) else str(idx)
            )
            row = [idx_text]
            for name in self.series:
                row.append(float_format.format(self.series[name][i]))
            rows.append(row)
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        lines = [
            f"== {self.figure_id}: {self.title} ==",
            "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)),
        ]
        lines.extend(
            "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row))
            for row in rows
        )
        if self.notes:
            lines.append(f"-- {self.notes}")
        if self.paper_reference:
            reference = ", ".join(
                f"{k}={v:g}" for k, v in self.paper_reference.items()
            )
            lines.append(f"-- paper reports: {reference}")
        return "\n".join(lines)
