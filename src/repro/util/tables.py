"""Plain-text rendering of tables and simple figures.

The benchmark harness prints the same rows/series the paper's figures show;
these helpers format them readably in a terminal and in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table", "render_cdf"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render a monospace table with aligned columns.

    Floats are formatted with *float_format*; everything else with ``str``.
    """

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    widths = [
        max(len(header), *(len(row[col]) for row in text_rows))
        if text_rows
        else len(header)
        for col, header in enumerate(headers)
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def render_cdf(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    points: int = 5,
) -> str:
    """Render CDF series as a table of (value, fraction) sample points.

    *series* maps a scheme name to ``(sorted_values, fractions)`` as produced
    by :func:`repro.util.stats.empirical_cdf`.
    """
    lines = []
    for name, (values, fractions) in series.items():
        if len(values) == 0:
            raise ValueError(f"series {name!r} is empty")
        indices = [
            min(len(values) - 1, round(i * (len(values) - 1) / max(points - 1, 1)))
            for i in range(points)
        ]
        samples = ", ".join(
            f"({values[i]:.2f}, {fractions[i]:.2f})" for i in indices
        )
        lines.append(f"{name}: {samples}")
    return "\n".join(lines)
