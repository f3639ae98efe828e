"""Plain-text rendering of figure results.

``python -m repro figure|all`` print these tables, and ``all --out
benchmarks/results`` writes them: each figure's data as readable rows
(series per column) plus the paper-vs-measured headline block.
"""

from __future__ import annotations

from .figures import FigureResult

__all__ = [
    "render_figure",
    "render_headline",
    "format_quantity",
]


def format_quantity(value) -> str:
    """Human-scale numbers: 1.23M, 45.6K, 0.0123, True/False."""
    if isinstance(value, bool):
        return str(value)
    if not isinstance(value, (int, float)):
        return str(value)
    v = float(value)
    if v == 0.0:
        return "0"
    a = abs(v)
    if a >= 1e9:
        return f"{v / 1e9:.3g}G"
    if a >= 1e6:
        return f"{v / 1e6:.3g}M"
    if a >= 1e3:
        return f"{v / 1e3:.3g}K"
    if a >= 1:
        return f"{v:.4g}"
    if a >= 1e-3:
        return f"{v * 1e3:.3g}m"
    return f"{v * 1e6:.3g}u"


def render_figure(result: FigureResult, max_rows: int = 40) -> str:
    """Figure data as an aligned table: one row per x, one column per series."""
    lines = [
        f"== {result.figure}: {result.title} ==",
        f"   ({result.x_label} vs {result.y_label})",
    ]
    names = list(result.series)
    xs: list = sorted({x for s in result.series.values() for x in s})
    if len(xs) > max_rows:
        stride = -(-len(xs) // max_rows)
        xs = xs[::stride]
    header = [result.x_label] + names
    rows = [header]
    for x in xs:
        row = [format_quantity(x)]
        for name in names:
            value = result.series[name].get(x)
            row.append("-" if value is None else format_quantity(value))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
    if result.headline:
        lines.append("")
        lines.append(render_headline(result))
    if result.notes:
        lines.extend(f"note: {n}" for n in result.notes)
    return "\n".join(lines)


def render_headline(result: FigureResult) -> str:
    """The paper-vs-measured comparison block."""
    lines = ["-- paper vs measured --"]
    for desc, (paper, measured) in result.headline.items():
        lines.append(
            f"  {desc}: paper={format_quantity(paper)} "
            f"measured={format_quantity(measured)}"
        )
    return "\n".join(lines)

