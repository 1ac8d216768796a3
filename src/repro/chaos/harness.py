"""Parity checking: chaos-run records vs the fault-free reference.

The whole chaos suite reduces to one assertion, applied at every
tier: the record lines that survive an injected fault sequence are
**byte-identical** to the fault-free run's lines. These helpers build
both sides of that comparison and, on mismatch, point at the first
divergent line instead of dumping two walls of JSON.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.experiments import runner
from repro.metrics.report import record_line


class ChaosParityError(AssertionError):
    """A chaos run's surviving records diverged from the reference."""


def run_lines(cells: Sequence[runner.SweepCell], **kwargs: Any
              ) -> Tuple[List[str], runner.SweepReport]:
    """Run *cells* through a :class:`SweepRunner`; return the record
    lines (cell-index order, canonical serialization) and the report.

    Keyword arguments go to the runner — ``jobs``, ``retries``,
    ``cell_hook`` — so the same helper produces the serial fault-free
    reference (no kwargs) and any chaos variant.
    """
    sweep = runner.SweepRunner(list(cells), **kwargs)
    report = runner.SweepReport(cells=sorted(
        sweep.stream(), key=lambda result: result.cell.index))
    return [record_line(row) for row in report.rows()], report


def first_divergence(expected: Sequence[str],
                     actual: Sequence[str]) -> Optional[int]:
    """Index of the first differing line, or None when byte-equal."""
    for index, (left, right) in enumerate(zip(expected, actual)):
        if left != right:
            return index
    if len(expected) != len(actual):
        return min(len(expected), len(actual))
    return None


def check_parity(expected: Sequence[str], actual: Sequence[str],
                 context: str) -> None:
    """Raise :class:`ChaosParityError` unless the streams byte-match."""
    index = first_divergence(expected, actual)
    if index is None:
        return
    def line_at(lines: Sequence[str], at: int) -> str:
        return lines[at] if at < len(lines) else "<missing>"
    raise ChaosParityError(
        f"{context}: records diverge at line {index} "
        f"({len(expected)} expected, {len(actual)} actual)\n"
        f"  expected: {line_at(expected, index)}\n"
        f"  actual:   {line_at(actual, index)}")


def run_manager_job(store: Any, spec: dict,
                    cell_hook: Optional[Callable] = None,
                    pool_jobs: int = 2,
                    timeout: float = 120.0) -> dict:
    """Run one job to a terminal state on a throwaway JobManager.

    Shared by the chaos tests and ``parity.py chaos``: submits *spec*,
    waits for the terminal state, shuts the manager down, and returns
    the final job dict (the caller owns *store* and its fault seams).
    """
    import time

    from repro.server import store as jobstore
    from repro.server.jobs import JobManager

    manager = JobManager(store, workers=1, pool_jobs=pool_jobs,
                         cell_hook=cell_hook)
    manager.start()
    try:
        job = manager.submit(spec)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            current = store.get_job(job["id"])
            if current["state"] in jobstore.TERMINAL:
                return current
            time.sleep(0.02)
        raise AssertionError(f"job {job['id']} not terminal after "
                             f"{timeout}s: {store.get_job(job['id'])}")
    finally:
        manager.shutdown(drain=False, grace=2.0)
