"""EXP-E3: sweep-runner throughput (supporting, not from the paper).

Measures cells/second of the parallel sweep runner on the acceptance
grid — ``sweep stretch --seeds 0 1 2 3`` — at ``jobs=1`` (in-process)
vs ``jobs=4`` (multiprocessing pool), and asserts the parallel path is
deterministic: identical rows and aggregates at any jobs level.

Run with ``pytest benchmarks/bench_sweep.py --benchmark-only``.

``python benchmarks/bench_sweep.py`` re-measures and rewrites
``benchmarks/BENCH_sweep.json``. The recorded ``cpus`` field matters:
the pool can only beat in-process execution when the machine has more
than one core (single-core containers record a speedup <= 1, which is
the honest ceiling there).
"""

import multiprocessing
import time

from repro.experiments import runner

#: The acceptance grid: the stretch scenario at its default parameters,
#: one cell per seed.
SEEDS = [0, 1, 2, 3]
JOBS_PARALLEL = 4


def stretch_cells():
    return runner.expand_grid(["stretch"], seeds=SEEDS)


def run_grid(jobs: int) -> runner.SweepReport:
    return runner.SweepRunner(stretch_cells(), jobs=jobs).run()


def test_sweep_serial_throughput(benchmark):
    report = benchmark.pedantic(lambda: run_grid(1), rounds=1,
                                iterations=1)
    assert report.ok and len(report.cells) == len(SEEDS)


def test_sweep_parallel_throughput(benchmark):
    report = benchmark.pedantic(lambda: run_grid(JOBS_PARALLEL), rounds=1,
                                iterations=1)
    assert report.ok and len(report.cells) == len(SEEDS)


def test_parallel_rows_match_serial():
    serial = run_grid(1)
    parallel = run_grid(JOBS_PARALLEL)
    assert parallel.rows() == serial.rows()
    assert parallel.summary_rows() == serial.summary_rows()


def _measure(jobs: int, rounds: int = 3) -> float:
    """Best wall-clock seconds over *rounds* runs (after one warm-up)."""
    run_grid(jobs)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run_grid(jobs)
        best = min(best, time.perf_counter() - start)
    return best


def regenerate_baseline(path: str = None) -> dict:
    """Measure sweep throughput and write BENCH_sweep.json."""
    import os

    from repro.metrics.report import write_json

    if path is None:
        path = os.path.join(os.path.dirname(__file__), "BENCH_sweep.json")

    cells = len(stretch_cells())
    serial_dt = _measure(1)
    parallel_dt = _measure(JOBS_PARALLEL)
    baseline = {
        "grid": {
            "description": "sweep stretch --seeds 0 1 2 3 at default "
                           "parameters (the acceptance grid)",
            "cells": cells,
        },
        "cpus": multiprocessing.cpu_count(),
        "jobs_1": {
            "wall_seconds": round(serial_dt, 6),
            "cells_per_sec": round(cells / serial_dt, 3),
        },
        f"jobs_{JOBS_PARALLEL}": {
            "wall_seconds": round(parallel_dt, 6),
            "cells_per_sec": round(cells / parallel_dt, 3),
        },
        "parallel_speedup": round(serial_dt / parallel_dt, 3),
    }
    write_json(path, baseline)
    return baseline


if __name__ == "__main__":
    import json

    print(json.dumps(regenerate_baseline(), indent=2, sort_keys=True))
