"""Plain-text result tables and machine-readable artifacts.

The demo's Perl/Tk GUI is replaced by text reports: every experiment
prints a table via :func:`format_table`, and the benches tee the same
rows into EXPERIMENTS.md.

Every experiment result additionally implements the unified row
protocol — a ``records()`` method returning flat dicts of primitives —
which :func:`records` adapts and :func:`write_json` / :func:`write_csv`
persist, so sweep outputs are diffable and scriptable.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence


def format_cell(value: Any) -> str:
    """Render one cell: floats get 4 significant digits."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    if value is None:
        return "-"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table with a separator under the header."""
    text_rows: List[List[str]] = [[format_cell(cell) for cell in row]
                                  for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)


def us(seconds: float) -> str:
    """Seconds rendered as microseconds."""
    return f"{seconds * 1e6:.1f}us"


def ms(seconds: float) -> str:
    """Seconds rendered as milliseconds."""
    return f"{seconds * 1e3:.3f}ms"


def s(seconds: float) -> str:
    """Seconds rendered with 3 decimals."""
    return f"{seconds:.3f}s"


def csv_columns(rows: Sequence[Dict[str, Any]]) -> List[str]:
    """Union of row keys in first-seen order (stable artifact layout)."""
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def write_csv(path: str, rows: Sequence[Dict[str, Any]]) -> None:
    """Write *rows* as CSV; missing cells and Nones render empty."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=csv_columns(rows),
                                restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v)
                             for k, v in row.items()})


def write_json(path: str, payload: Any) -> None:
    """Write *payload* as stable, indented JSON."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def record_line(row: Dict[str, Any]) -> str:
    """One record row as its canonical JSON line (no trailing newline).

    This is THE serialization of a record everywhere records travel as
    lines: ``repro sweep --jsonl`` artifacts, the serve daemon's SQLite
    record store and its ``GET /v1/jobs/<id>/records`` NDJSON stream
    all call this function — which is what makes the determinism
    contract *byte*-comparable across those surfaces, not just
    value-comparable. Keys are sorted and separators compact, so the
    bytes depend only on the row's contents.
    """
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str, rows: Sequence[Dict[str, Any]]) -> None:
    """Write *rows* as canonical newline-delimited JSON records."""
    with open(path, "w") as handle:
        for row in rows:
            handle.write(record_line(row))
            handle.write("\n")
