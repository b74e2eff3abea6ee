"""Plain-text tables and charts for benchmark output.

The benchmark harness prints each reproduced figure as a table so
results are inspectable straight from ``pytest benchmarks/``
output (and are archived in ``bench_output.txt``).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    def render(cell) -> str:
        if isinstance(cell, float):
            if cell != cell:  # NaN
                return "-"
            if math.isinf(cell):
                return "inf"
            if abs(cell) >= 1000 or (cell and abs(cell) < 0.01):
                return f"{cell:.3g}"
            return f"{cell:.3f}"
        return str(cell)

    text_rows = [[render(cell) for cell in row] for row in rows]
    widths = [max(len(header), *(len(row[index]) for row in text_rows))
              if text_rows else len(header)
              for index, header in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width)
                           for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)
