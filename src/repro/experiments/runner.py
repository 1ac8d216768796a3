"""Parallel sweep runner: expand scenario grids, execute on a pool.

A sweep is a list of :class:`SweepCell` — one (scenario, seed, param
overrides) triple per cell, produced by :func:`expand_grid` from the
cross product of scenarios x seeds x sweep axes. :class:`SweepRunner`
executes cells on a crash-isolated worker pool (``jobs=1`` runs in
process, no pool) and streams :class:`CellResult` objects as they
complete.

Determinism: each cell carries its own seed, every experiment builds a
fresh ``Simulator(seed=cell.seed)``, and cells share no state — so the
per-cell rows are identical at any ``jobs`` level, and the aggregation
(:func:`repro.metrics.stats.aggregate_rows`) sorts its groups, making
the summary byte-identical too.

Fault tolerance: the pool assigns each cell to exactly one worker
process at a time and watches worker liveness, so a worker that dies
mid-cell (segfault, OOM kill, ``os._exit``) fails only *its* cell — the
parent synthesizes a :class:`WorkerCrashError` result naming the cell
and respawns a fresh worker; the stream never aborts mid-iteration.
Failed attempts (crash or raise) are retried up to ``retries`` times
with a deterministic exponential-backoff schedule
(:func:`backoff_schedule`: seeded jitter, monotone non-decreasing), and
a cell that exhausts its budget terminates as
:data:`FAILED_PERMANENT` — partial sweeps still return every good row.
``cell_hook`` is the chaos-injection seam (:mod:`repro.chaos`): a
picklable callable run inside the worker before each attempt.
"""

from __future__ import annotations

import heapq
import multiprocessing
import pickle
import random
import signal
import time
import traceback
from multiprocessing import connection as mp_connection
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.experiments import registry
from repro.metrics.stats import aggregate_rows

#: Overrides are stored as a sorted tuple of (name, value) pairs with
#: list values frozen to tuples, so cells are hashable and picklable.
Overrides = Tuple[Tuple[str, Any], ...]

#: Terminal cell statuses: every yielded CellResult carries one.
OK = "ok"
FAILED_PERMANENT = "failed_permanent"


class WorkerCrashError(RuntimeError):
    """A pool worker died (signal/exit) while executing a sweep cell.

    Raised nowhere — the pool *synthesizes* the failed attempt instead
    of aborting the stream — but its name prefixes the cell's error
    text so callers (and ``job.error`` over HTTP) can tell a worker
    death from an ordinary experiment exception.
    """

    def __init__(self, cell: "SweepCell", exitcode: Optional[int],
                 attempt: int):
        super().__init__(
            f"pool worker died running cell {cell.label()} "
            f"(exitcode {exitcode}, attempt {attempt + 1})")
        self.cell = cell
        self.exitcode = exitcode
        self.attempt = attempt

    def describe(self) -> str:
        """The error text stored on the cell result."""
        return f"WorkerCrashError: {self}"


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a scenario at one seed and param point."""

    index: int
    scenario: str
    seed: int
    overrides: Overrides = ()

    def params(self) -> Dict[str, Any]:
        """Overrides as run kwargs (tuples thawed back to lists)."""
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in self.overrides}

    def label(self) -> str:
        parts = [self.scenario, f"seed={self.seed}"]
        parts += [f"{name}={_brief(value)}"
                  for name, value in self.overrides]
        return " ".join(parts)


def _brief(value: Any) -> str:
    if isinstance(value, tuple):
        return "+".join(str(v) for v in value)
    return str(value)


@dataclass
class CellResult:
    """A finished cell: its rows (tagged with cell identity) or error.

    ``attempts`` counts every execution try (1 = first attempt
    succeeded); ``retried`` is true when at least one earlier attempt
    failed; ``status`` is :data:`OK` or :data:`FAILED_PERMANENT` (the
    retry budget is spent and ``error`` holds the last attempt's
    failure).
    """

    cell: SweepCell
    rows: List[Dict[str, Any]] = field(default_factory=list)
    elapsed: float = 0.0
    error: Optional[str] = None
    attempts: int = 1
    retried: bool = False
    status: str = OK

    @property
    def ok(self) -> bool:
        return self.error is None


def freeze_overrides(overrides: Dict[str, Any]) -> Overrides:
    return tuple(sorted(
        (name, tuple(value) if isinstance(value, list) else value)
        for name, value in overrides.items()))


def expand_grid(scenarios: Sequence[str], seeds: Sequence[int],
                axes: Optional[Dict[str, Sequence[Any]]] = None
                ) -> List[SweepCell]:
    """The cross product scenario x seed x (every axis value combo).

    *axes* maps param names to the values to sweep; every named param
    must exist (and be sweepable) on every selected scenario. For
    list-typed params each axis value becomes a singleton list — e.g.
    sweeping ``protocols`` over ``arppath,stp`` runs each protocol as
    its own cell.
    """
    points: List[Dict[str, Any]] = [{}]
    for name, values in (axes or {}).items():
        for scenario_name in scenarios:
            scenario = registry.get(scenario_name)
            param = scenario.param(name)  # raises on unknown
            if not param.sweep:
                raise ValueError(
                    f"{scenario_name}: parameter {name!r} cannot be a "
                    "sweep axis")
        points = [dict(point, **{name: value})
                  for point in points for value in values]

    cells = []
    for scenario_name in scenarios:
        scenario = registry.get(scenario_name)
        for point in points:
            shaped = {
                name: [value] if scenario.param(name).is_list
                and not isinstance(value, (list, tuple)) else value
                for name, value in point.items()}
            for seed in seeds:
                cells.append(SweepCell(index=len(cells),
                                       scenario=scenario_name, seed=seed,
                                       overrides=freeze_overrides(shaped)))
    return cells


#: Backoff jitter spread: each delay is the exponential base scaled by
#: a seeded factor in [1, 1 + _JITTER). The spread stays below the 2x
#: growth between attempts, so the schedule is monotone by
#: construction (2 / (1 + _JITTER) > 1).
_JITTER = 0.5

#: Golden-ratio multiplier decorrelating per-cell jitter streams.
_BACKOFF_MIX = 0x9E3779B9


def backoff_schedule(retries: int, base: float = 0.05, cap: float = 2.0,
                     seed: int = 0, cell_index: int = 0) -> List[float]:
    """Delays (seconds) before each retry of one cell.

    Deterministic: a pure function of ``(retries, base, cap, seed,
    cell_index)`` — re-running a sweep replays the identical schedule.
    Exponential with seeded jitter, clamped to *cap*, and monotone
    non-decreasing (pinned by a hypothesis property test): the jitter
    spread is smaller than the 2x growth step, and clamping a monotone
    sequence preserves monotonicity.
    """
    rng = random.Random((seed * _BACKOFF_MIX) ^ cell_index ^ 0x5EED)
    return [min(cap, base * (2.0 ** attempt) * (1.0 + _JITTER
                                                * rng.random()))
            for attempt in range(max(retries, 0))]


def execute_cell(cell: SweepCell, attempt: int = 0,
                 hook: Optional[Callable[[SweepCell, int], None]] = None
                 ) -> CellResult:
    """Run one cell to rows (module-level so pool workers can pickle it).

    *hook* is the chaos-injection seam: called as ``hook(cell,
    attempt)`` before the experiment runs, inside the error boundary —
    a hook that raises fails this attempt like any experiment error
    (and a hook that ``os._exit``\\ s kills the worker, exercising the
    crash path). The attempt number never reaches the experiment, so
    retried cells reproduce byte-identical rows.
    """
    registry.load_all()
    scenario = registry.get(cell.scenario)
    started = time.perf_counter()
    try:
        if hook is not None:
            hook(cell, attempt)
        params = scenario.bind(cell.params())
        params["seeds"] = [cell.seed]
        result = scenario.run(**params)
        rows = []
        for row in scenario.records(result):
            tagged: Dict[str, Any] = {"scenario": cell.scenario}
            tagged.update(row)
            tagged["seed"] = cell.seed
            for name, value in cell.overrides:
                tagged.setdefault(name, _brief(value)
                                  if isinstance(value, tuple) else value)
            rows.append(tagged)
    except Exception:
        return CellResult(cell=cell, error=traceback.format_exc(),
                          elapsed=time.perf_counter() - started)
    return CellResult(cell=cell, rows=rows,
                      elapsed=time.perf_counter() - started)


#: How often a parallel stream wakes up to poll its cancel callable
#: while no cell result is ready (seconds).
_CANCEL_POLL_S = 0.05


def _pool_worker_main(tasks: Any, results: Any) -> None:
    """One pool worker: run assigned cells until the sentinel.

    Results are pickled explicitly (an unpicklable payload surfaces as
    this attempt's error instead of a silent death) and sent over this
    worker's *private* pipe — no queue or lock is shared between
    workers, so a worker dying mid-write (``os._exit``, OOM kill)
    corrupts only its own channel, never a sibling's.

    SIGTERM/SIGINT go back to their defaults first: a forked worker
    inherits its parent's handlers, and under ``repro serve`` those only
    flag the daemon's shutdown event — :meth:`_PoolWorker.stop`'s
    ``terminate(); join()`` would then wait forever on a worker that
    logs the signal and carries on.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    registry.load_all()
    while True:
        task = tasks.get()
        if task is None:
            return
        cell, attempt, hook = task
        result = execute_cell(cell, attempt=attempt, hook=hook)
        try:
            payload = pickle.dumps((cell.index, result))
        except Exception:
            payload = pickle.dumps((cell.index, CellResult(
                cell=cell, error="result not picklable:\n"
                + traceback.format_exc())))
        results.send_bytes(payload)


class _PoolWorker:
    """One crash-isolated worker: private task queue + result pipe."""

    def __init__(self, context):
        self.tasks = context.SimpleQueue()
        self.conn, child_conn = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_pool_worker_main, args=(self.tasks, child_conn),
            daemon=True)
        self.process.start()
        child_conn.close()  # parent keeps only the read end

    def assign(self, cell: SweepCell, attempt: int,
               hook: Optional[Callable]) -> None:
        self.tasks.put((cell, attempt, hook))

    def drain(self) -> List[bytes]:
        """Every complete result payload currently buffered.

        A dead worker's pipe is drained the same way: complete
        messages sent before the crash are preserved, and the torn
        tail (or plain EOF) is swallowed — the liveness check turns
        the missing result into a :class:`WorkerCrashError` attempt.
        """
        payloads: List[bytes] = []
        try:
            while self.conn.poll():
                payloads.append(self.conn.recv_bytes())
        except (EOFError, OSError):
            pass
        return payloads

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        self.process.terminate()
        self.process.join()
        self.conn.close()


class SweepRunner:
    """Execute sweep cells, in process or on a crash-isolated pool.

    ``retries`` is the per-cell retry budget: a failed attempt (raise
    or worker death) re-runs after its :func:`backoff_schedule` delay
    (default base, cap and jitter seed), up to ``retries`` extra
    attempts. ``cell_hook`` (picklable, run inside the worker) is the
    chaos seam.
    """

    def __init__(self, cells: Sequence[SweepCell], jobs: int = 1,
                 retries: int = 0,
                 cell_hook: Optional[Callable[[SweepCell, int],
                                              None]] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.cells = list(cells)
        self.jobs = jobs
        self.retries = retries
        self.cell_hook = cell_hook

    def _delays(self, cell: SweepCell) -> List[float]:
        return backoff_schedule(self.retries, cell_index=cell.index)

    @staticmethod
    def _finalize(result: CellResult, attempt: int) -> CellResult:
        result.attempts = attempt + 1
        result.retried = attempt > 0
        result.status = OK if result.ok else FAILED_PERMANENT
        return result

    def stream(self, cancel: Optional[Callable[[], bool]] = None
               ) -> Iterator[CellResult]:
        """Yield each cell's result as it completes (unordered when
        parallel).

        *cancel* is polled between cells (and, on the pool path, while
        waiting for results): once it returns true the stream stops
        issuing work, terminates any pool workers and ends early —
        already-yielded results stay valid, unfinished cells are simply
        never yielded. This is the primitive the ``repro serve`` job
        queue builds cancellation and per-job timeouts on.
        """
        cancelled = cancel if cancel is not None else (lambda: False)
        if self.jobs == 1 or len(self.cells) <= 1:
            yield from self._stream_serial(cancelled)
            return
        yield from self._stream_pool(cancelled)

    def _stream_serial(self, cancelled: Callable[[], bool]
                       ) -> Iterator[CellResult]:
        for cell in self.cells:
            if cancelled():
                return
            delays = self._delays(cell)
            for attempt in range(self.retries + 1):
                result = execute_cell(cell, attempt=attempt,
                                      hook=self.cell_hook)
                if result.ok or attempt >= self.retries:
                    yield self._finalize(result, attempt)
                    break
                time.sleep(delays[attempt])
                if cancelled():
                    return

    def _stream_pool(self, cancelled: Callable[[], bool]
                     ) -> Iterator[CellResult]:
        context = multiprocessing.get_context()
        workers = [_PoolWorker(context)
                   for _ in range(min(self.jobs, len(self.cells)))]
        pending = deque(self.cells)     # cells awaiting (re)dispatch
        retry_at: List[Tuple[float, int, SweepCell]] = []  # backoff heap
        attempts: Dict[int, int] = {cell.index: 0 for cell in self.cells}
        busy: Dict[int, SweepCell] = {}  # worker slot -> running cell
        done: set = set()
        try:
            while len(done) < len(self.cells):
                if cancelled():
                    return
                now = time.monotonic()
                while retry_at and retry_at[0][0] <= now:
                    cell = heapq.heappop(retry_at)[2]
                    if cell.index not in done:
                        pending.append(cell)
                # Dispatch: one cell per idle worker.
                for slot, worker in enumerate(workers):
                    if slot in busy or not pending:
                        continue
                    cell = pending.popleft()
                    if cell.index in done:
                        continue
                    worker.assign(cell, attempts[cell.index],
                                  self.cell_hook)
                    busy[slot] = cell
                def handle(payloads: List[bytes]
                           ) -> Iterator[CellResult]:
                    for payload in payloads:
                        index, result = pickle.loads(payload)
                        if index in done:
                            continue  # stale dup of a settled cell
                        for slot, cell in list(busy.items()):
                            if cell.index == index:
                                del busy[slot]
                                break
                        settled = self._settle(result, attempts,
                                               retry_at, done)
                        if settled is not None:
                            yield settled

                # Reap: bounded wait keeps cancel + the liveness check
                # responsive; drain every ready pipe (a dead worker's
                # conn reports ready too — drain() preserves complete
                # messages it sent before dying and swallows the tear).
                raw: List[bytes] = []
                if mp_connection.wait([w.conn for w in workers],
                                      timeout=_CANCEL_POLL_S):
                    for worker in workers:
                        raw.extend(worker.drain())
                yield from handle(raw)
                # Liveness: a dead worker fails only the cell it was
                # running; the pool heals with a fresh process.
                for slot, worker in enumerate(workers):
                    if worker.alive():
                        continue
                    # Results it finished sending before dying still
                    # count; only the torn tail becomes a crash.
                    yield from handle(worker.drain())
                    exitcode = worker.process.exitcode
                    worker.process.join()
                    worker.conn.close()
                    crashed = busy.pop(slot, None)
                    workers[slot] = _PoolWorker(context)
                    if crashed is None or crashed.index in done:
                        continue
                    attempt = attempts[crashed.index]
                    crash = WorkerCrashError(crashed, exitcode, attempt)
                    settled = self._settle(
                        CellResult(cell=crashed, error=crash.describe()),
                        attempts, retry_at, done)
                    if settled is not None:
                        yield settled
        finally:
            for worker in workers:
                worker.stop()

    def _settle(self, result: CellResult, attempts: Dict[int, int],
                retry_at: List[Tuple[float, int, SweepCell]],
                done: set) -> Optional[CellResult]:
        """Finalize a pool attempt, or schedule its backoff retry."""
        cell = result.cell
        attempt = attempts[cell.index]
        if result.ok or attempt >= self.retries:
            done.add(cell.index)
            return self._finalize(result, attempt)
        attempts[cell.index] = attempt + 1
        delay = self._delays(cell)[attempt]
        heapq.heappush(retry_at,
                       (time.monotonic() + delay, cell.index, cell))
        return None

    def run(self) -> "SweepReport":
        """Execute every cell and return the collected report."""
        results = sorted(self.stream(), key=lambda r: r.cell.index)
        return SweepReport(cells=results)


@dataclass
class SweepReport:
    """All cell results plus seed-aggregated summaries."""

    cells: List[CellResult]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.cells)

    @property
    def errors(self) -> List[CellResult]:
        return [result for result in self.cells if not result.ok]

    @property
    def attempts(self) -> int:
        """Total execution attempts across the sweep (>= len(cells))."""
        return sum(result.attempts for result in self.cells)

    @property
    def retried(self) -> List[CellResult]:
        """Cells that needed more than one attempt."""
        return [result for result in self.cells if result.retried]

    @property
    def permanent_failures(self) -> List[CellResult]:
        """Cells that exhausted their retry budget."""
        return [result for result in self.cells
                if result.status == FAILED_PERMANENT]

    def rows(self) -> List[Dict[str, Any]]:
        """Every tagged row from every successful cell, in cell order."""
        out: List[Dict[str, Any]] = []
        for result in self.cells:
            out.extend(result.rows)
        return out

    def summary_rows(self) -> List[Dict[str, Any]]:
        """Rows aggregated over seeds (mean/ci95 per numeric column).

        Sweep-axis columns identify a grid point rather than measure
        it, so they join the scenario's ``row_keys`` as group keys.
        """
        by_scenario: Dict[str, List[Dict[str, Any]]] = {}
        axis_names: Dict[str, set] = {}
        for result in self.cells:
            names = axis_names.setdefault(result.cell.scenario, set())
            names.update(name for name, _ in result.cell.overrides)
        for row in self.rows():
            by_scenario.setdefault(row["scenario"], []).append(row)
        out: List[Dict[str, Any]] = []
        for name in sorted(by_scenario):
            scenario = registry.get(name)
            keys = tuple(scenario.row_keys) \
                + tuple(sorted(axis_names.get(name, ())))
            out.extend(aggregate_rows(by_scenario[name], key_fields=keys))
        return out

    def as_payload(self) -> Dict[str, Any]:
        """The JSON artifact: cells, raw rows and aggregated summary."""
        return {
            "cells": [{"index": r.cell.index,
                       "scenario": r.cell.scenario,
                       "seed": r.cell.seed,
                       "overrides": dict((k, list(v)
                                          if isinstance(v, tuple) else v)
                                         for k, v in r.cell.overrides),
                       "elapsed_s": round(r.elapsed, 6),
                       "attempts": r.attempts,
                       "retried": r.retried,
                       "status": r.status,
                       "error": r.error}
                      for r in self.cells],
            "rows": self.rows(),
            "summary": self.summary_rows(),
        }
