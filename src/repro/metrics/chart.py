"""Plain-text charts: the demo GUI's latency graphs, in a terminal.

The SIGCOMM demo drove a GUI that "will build graphs to show the
latencies obtained"; these helpers render the same series as ASCII so
examples and benches can show the *picture*, not just the table.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """A one-line block-character chart of *values*.

    Values are min-max normalised; *width* resamples the series by
    bucket-averaging when it is longer than the target width.
    """
    if not values:
        return ""
    series = list(values)
    if width is not None and width > 0 and len(series) > width:
        bucket = len(series) / width
        series = [
            sum(series[int(i * bucket):max(int((i + 1) * bucket),
                                           int(i * bucket) + 1)])
            / max(len(series[int(i * bucket):max(int((i + 1) * bucket),
                                                 int(i * bucket) + 1)]), 1)
            for i in range(width)
        ]
    low, high = min(series), max(series)
    if high == low:
        return BLOCKS[1] * len(series)
    scale = (len(BLOCKS) - 2) / (high - low)
    return "".join(BLOCKS[1 + int((v - low) * scale)] for v in series)


def timeseries(points: Sequence[Tuple[float, float]], width: int = 64,
               height: int = 10, label: str = "") -> str:
    """A multi-line scatter chart of (time, value) points.

    Marks failures-style spikes clearly enough to see a repair gap or an
    STP reconvergence stall at a glance.
    """
    if not points:
        return "(no data)"
    times = [t for t, _v in points]
    values = [v for _t, v in points]
    t_low, t_high = min(times), max(times)
    v_low, v_high = min(values), max(values)
    t_span = (t_high - t_low) or 1.0
    v_span = (v_high - v_low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for t, v in points:
        col = min(int((t - t_low) / t_span * (width - 1)), width - 1)
        row = min(int((v - v_low) / v_span * (height - 1)), height - 1)
        grid[height - 1 - row][col] = "*"
    lines: List[str] = []
    if label:
        lines.append(label)
    top = f"{v_high:.3g}"
    bottom = f"{v_low:.3g}"
    margin = max(len(top), len(bottom))
    for index, row in enumerate(grid):
        prefix = top if index == 0 else (
            bottom if index == height - 1 else "")
        lines.append(f"{prefix:>{margin}} |" + "".join(row))
    axis = f"{t_low:.3g}"
    axis_right = f"{t_high:.3g}"
    pad = width - len(axis) - len(axis_right)
    lines.append(" " * margin + " +" + "-" * width)
    lines.append(" " * (margin + 2) + axis + " " * max(pad, 1) + axis_right)
    return "\n".join(lines)

