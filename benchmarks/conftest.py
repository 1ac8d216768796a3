"""Shared helpers for the benchmark harness.

Each bench regenerates one of the paper's tables/figures (README.md,
"Scenario registry") and prints the same rows the paper reports. Experiments run once
per bench (``rounds=1``) — the interesting output is the table, not the
wall-clock of the harness; engine micro-benchmarks use normal
multi-round timing.

Run with ``-s`` to see the result tables::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations


def banner(title: str) -> None:
    print("\n" + "#" * 72)
    print(f"# {title}")
    print("#" * 72)


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
