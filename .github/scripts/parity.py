"""Byte parity of records: one grid, two conditions, the same lines.

    python .github/scripts/parity.py {jobs,hashseed,serve,chaos}

Each condition runs grids from :data:`GRIDS` (plain data: the arguments
of ``runner.expand_grid`` and ``repro sweep``) under two conditions and
compares the outputs through ``repro.chaos.harness.check_parity``, so a
failure prints the first divergent line:

* ``jobs`` — every grid in :data:`JOBS_GRIDS` through ``repro sweep`` at
  ``--jobs 1`` and ``--jobs 2``: ``events_processed`` from the JSON
  artifact's cell telemetry first, then the records (``--jsonl``), the
  CSV, the JSON artifact without its ``elapsed_s`` timings and stdout.
  Population rows must also carry ``endpoints_per_port`` endpoints per
  host and deliver payloads.
* ``hashseed`` — the same outputs under ``PYTHONHASHSEED=1`` and ``2``.
* ``serve`` — records streamed by a real ``repro serve`` daemon equal
  ``repro sweep --jsonl``; then a daemon SIGTERM'd mid-job exits 0,
  removes its pidfile, leaves no process behind, and after a restart
  lists the interrupted job as cancelled or completed.
* ``chaos`` — faults injected into the execution layer (:func:`chaos`).

Every process, this one included, runs with ``networkx`` unimportable:
the library needs only the standard library.
"""

import argparse
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from typing import Any, Callable, Dict, Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from repro.chaos.faults import FlakyWrites, seeded_plan  # noqa: E402
from repro.chaos.harness import (check_parity, run_lines,  # noqa: E402
                                 run_manager_job)
from repro.experiments import runner  # noqa: E402
from repro.netsim.shard import ShardStallError, run_sharded  # noqa: E402
from repro.server.store import TERMINAL, Store  # noqa: E402

Grid = Dict[str, Any]

GRIDS: Dict[str, Grid] = {
    "stretch": {"scenarios": ["stretch"], "seeds": [0, 1],
                "set": {"bridges": [5], "hosts": [2],
                        "protocols": ["arppath"]}},
    # every table miss of the controller family goes through the
    # out-of-band packet-in / flow-install exchange
    "churn-arppath": {"scenarios": ["churn"], "seeds": [0, 1],
                      "set": {"flap_rate": [0.5], "duration": [3],
                              "protocols": ["arppath"]}},
    "churn-controller": {"scenarios": ["churn"], "seeds": [0, 1],
                         "set": {"flap_rate": [0.5], "duration": [3],
                                 "protocols": ["controller"]}},
    "stp": {"scenarios": ["fig3", "stretch", "churn"], "seeds": [0, 1],
            "set": {"protocols": ["stp"]}},
    "scale": {"scenarios": ["scale"], "seeds": [0, 1],
              "set": {"sizes": [9, 16], "protocols": ["arppath"]}},
    "population": {"scenarios": ["scale"], "seeds": [0],
                   "set": {"sizes": [9], "protocols": ["arppath"],
                           "pairs": [2], "probes": [2],
                           "endpoints_per_port": [10]}},
    "hashseed": {"scenarios": ["occupancy", "loopfree", "fig2"],
                 "seeds": [1, 2], "set": {}},
    "serve": {"scenarios": ["scale"], "seeds": [0, 1],
              "set": {"sizes": [9, 16], "protocols": ["arppath"]}},
    # ~40 cells x ~0.1 s: still running when the SIGTERM lands
    "serve-sigterm": {"scenarios": ["churn"], "seeds": list(range(40)),
                      "set": {"duration": [120],
                              "protocols": ["arppath"]}},
    "chaos-pool": {"scenarios": ["proxy"], "seeds": [0, 1, 2, 3],
                   "set": {"rows": [2], "cols": [2], "rounds": [1]}},
    "chaos-store": {"scenarios": ["proxy"], "seeds": [0, 1, 2],
                    "set": {"rows": [2], "cols": [2], "rounds": [1]}},
    "chaos-resume": {"scenarios": ["churn"], "seeds": list(range(24)),
                     "set": {"duration": [120], "protocols": ["arppath"]}},
}

JOBS_GRIDS = ("stretch", "churn-arppath", "churn-controller", "stp",
              "scale", "population")

#: Seconds any one HTTP request or sweep process may take.
HTTP_TIMEOUT = 10.0
SWEEP_TIMEOUT = 600.0


class CheckFailed(AssertionError):
    """A check failed for a reason other than record parity."""


def log(message: str) -> None:
    print(f"[parity] {message}", flush=True)


def child_env(workdir: str, **extra: str) -> Dict[str, str]:
    """Environment of every process started here: ``repro`` from this
    checkout, and *workdir*'s ``sitecustomize`` blocking networkx."""
    path = filter(None, (workdir, SRC, os.environ.get("PYTHONPATH")))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def expand(grid: Grid) -> List[runner.SweepCell]:
    return runner.expand_grid(grid["scenarios"], grid["seeds"], grid["set"])


def submission(grid: Grid, **envelope: Any) -> Dict[str, Any]:
    """*grid* as a ``POST /v1/jobs`` body."""
    (scenario,) = grid["scenarios"]
    return dict(envelope, scenario=scenario, seeds=grid["seeds"],
                set=grid["set"])


def poll(probe: Callable[[], Any], timeout: float, what: str) -> Any:
    """Call *probe* until it returns something truthy; return that."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = probe()
        if value:
            return value
        time.sleep(0.05)
    raise CheckFailed(f"{what} within {timeout:.0f}s")


# -- repro sweep ----------------------------------------------------------------

def sweep(workdir: str, grid: Grid, name: str, jobs: int = 1,
          **env: str) -> str:
    """``repro sweep`` over *grid*; returns the prefix of its outputs
    (stdout in ``.out``, then ``.jsonl``, ``.csv`` and ``.json``)."""
    out = os.path.join(workdir, name)
    argv = [sys.executable, "-m", "repro.cli", "sweep", *grid["scenarios"],
            "--seeds", *map(str, grid["seeds"]), "--jobs", str(jobs),
            "--jsonl", f"{out}.jsonl", "--csv", f"{out}.csv",
            "--json", f"{out}.json"]
    for param, values in grid["set"].items():
        argv += ["--set", f"{param}={','.join(map(str, values))}"]
    with open(f"{out}.out", "w") as stdout:
        done = subprocess.run(argv, env=child_env(workdir, **env),
                              stdout=stdout, stderr=subprocess.PIPE,
                              timeout=SWEEP_TIMEOUT, universal_newlines=True)
    if done.returncode != 0:
        raise CheckFailed(f"repro sweep exited {done.returncode}:\n"
                          f"{done.stderr}")
    return out


def read_lines(path: str) -> List[str]:
    with open(path) as handle:
        return handle.read().splitlines()


def artifact(out: str) -> Dict[str, Any]:
    with open(f"{out}.json") as handle:
        return json.load(handle)


def artifact_lines(out: str) -> List[str]:
    """The JSON artifact without its timings, one field per line."""
    payload = artifact(out)
    for cell in payload["cells"]:
        cell.pop("elapsed_s")
    return json.dumps(payload, indent=1, sort_keys=True).splitlines()


def compare_sweeps(left: str, right: str, context: str) -> int:
    """Check two :func:`sweep` outputs equal; return the record count."""
    records = [read_lines(f"{out}.jsonl") for out in (left, right)]
    if not records[0]:
        raise CheckFailed(f"{context}: the sweep produced no records")
    events = [[str(cell["telemetry"].get("events_processed"))
               for cell in artifact(out)["cells"]] for out in (left, right)]
    check_parity(*events, f"{context}: telemetry events_processed")
    check_parity(*records, f"{context}: --jsonl records")
    for row in map(json.loads, records[0]):
        if "endpoints_per_port" in row and not (
                row["endpoints"] == row["endpoints_per_port"] * row["hosts"]
                and row["payloads_delivered"] > 0):
            raise CheckFailed(f"{context}: population row {row}")
    check_parity(read_lines(f"{left}.csv"), read_lines(f"{right}.csv"),
                 f"{context}: --csv")
    check_parity(artifact_lines(left), artifact_lines(right),
                 f"{context}: --json without elapsed_s")
    check_parity(read_lines(f"{left}.out"), read_lines(f"{right}.out"),
                 f"{context}: stdout")
    return len(records[0])


def jobs(workdir: str) -> None:
    for name in JOBS_GRIDS:
        outs = [sweep(workdir, GRIDS[name], f"{name}-jobs{count}",
                      jobs=count) for count in (1, 2)]
        lines = compare_sweeps(*outs, f"{name} at --jobs 1 vs 2")
        log(f"{name}: {lines} records byte-identical at --jobs 1 and 2")


def hashseed(workdir: str) -> None:
    outs = [sweep(workdir, GRIDS["hashseed"], f"hashseed{seed}",
                  PYTHONHASHSEED=str(seed)) for seed in (1, 2)]
    lines = compare_sweeps(*outs, "PYTHONHASHSEED=1 vs 2")
    log(f"{lines} records byte-identical under PYTHONHASHSEED=1 and 2")


# -- repro serve ----------------------------------------------------------------

def get(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path,
                                timeout=HTTP_TIMEOUT) as response:
        return response.read().decode()


def post(base: str, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    request = urllib.request.Request(
        base + path, method="POST", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request,
                                timeout=HTTP_TIMEOUT) as response:
        return json.loads(response.read())


def job(base: str, job_id: int) -> Dict[str, Any]:
    return json.loads(get(base, f"/v1/jobs/{job_id}"))["job"]


def finished(base: str, job_id: int) -> Dict[str, Any]:
    """The job once terminal, within two minutes."""
    def probe() -> Any:
        current = job(base, job_id)
        return current["state"] in TERMINAL and current
    return poll(probe, 120.0, f"job {job_id} did not finish")


def mid_job(base: str, job_id: int, ready: Callable[[Dict], bool]
                   ) -> Dict[str, Any]:
    """The job once ``ready(job)`` holds; fails if it finishes first."""
    def probe() -> Any:
        current = job(base, job_id)
        if current["state"] in TERMINAL:
            raise CheckFailed(f"job {job_id} finished ({current['state']}) "
                              "before the fault; enlarge the grid")
        return ready(current) and current
    return poll(probe, 60.0, f"job {job_id} never got under way")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@contextlib.contextmanager
def daemon(workdir: str, db: str, *options: str
           ) -> Iterator[Tuple[subprocess.Popen, str]]:
    """A ``repro serve`` on a free port over *db*; yields (process, URL).

    It writes ``<db>.pid`` and appends to ``<db>.log``; leaving the block
    SIGTERMs it (then kills it) if it is still running.
    """
    port = free_port()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
         "--port", str(port), "--db", db, "--pidfile", f"{db}.pid",
         "--log-file", f"{db}.log", *options],
        env=child_env(workdir), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    base = f"http://127.0.0.1:{port}"

    def healthy() -> Any:
        if process.poll() is not None:
            raise CheckFailed(f"daemon exited {process.returncode} before "
                              f"serving (log: {db}.log)")
        try:
            return get(base, "/v1/health")
        except OSError:
            return None
    try:
        poll(healthy, 30.0, "daemon never answered /v1/health")
        yield process, base
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10.0)


def serve(workdir: str) -> None:
    reference = sweep(workdir, GRIDS["serve"], "serve-sweep", jobs=2)
    db = os.path.join(workdir, "serve.db")
    with daemon(workdir, db, "--workers", "2", "--pool", "2",
                # short enough that the SIGTERM below cancels, not
                # drains quietly
                "--drain-grace", "1") as (process, base):
        job_id = post(base, "/v1/jobs", submission(
            GRIDS["serve"], jobs=2))["job"]["id"]
        state = finished(base, job_id)["state"]
        if state != "completed":
            raise CheckFailed(f"job ended {state}")
        lines = get(base, f"/v1/jobs/{job_id}/records").splitlines()
        check_parity(read_lines(f"{reference}.jsonl"), lines,
                     "HTTP records vs sweep --jsonl")
        if json.loads(get(base, "/v1/stats"))["jobs"]["completed"] < 1:
            raise CheckFailed("stats count no completed job")
        log(f"HTTP records byte-identical to sweep --jsonl "
            f"({len(lines)} lines)")

        interrupted = post(base, "/v1/jobs", submission(
            GRIDS["serve-sigterm"]))["job"]["id"]
        mid_job(base, interrupted,
                lambda current: current["state"] == "running")
        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            raise CheckFailed("daemon did not exit on SIGTERM")
    if code != 0 or os.path.exists(f"{db}.pid"):
        raise CheckFailed(f"SIGTERM: exit {code}, pidfile left: "
                          f"{os.path.exists(f'{db}.pid')}")
    survivors = subprocess.run(["pgrep", "-f", db], stdout=subprocess.PIPE,
                               universal_newlines=True).stdout.split()
    if survivors:
        raise CheckFailed(f"processes survived the daemon: {survivors}")
    log(f"SIGTERM drained cleanly; job {interrupted} interrupted")

    with daemon(workdir, db, "--workers", "2", "--pool", "2") as (_, base):
        history = json.loads(get(base, "/v1/jobs"))["jobs"]
    states = {entry["id"]: entry["state"] for entry in history}
    # drained to completion inside the grace window, or closed out as
    # cancelled: never left running or queued, never lost
    if states.get(interrupted) not in ("cancelled", "completed"):
        raise CheckFailed(f"after restart job {interrupted} is "
                          f"{states.get(interrupted)}")
    log(f"restart lists job {interrupted} as {states[interrupted]}; "
        f"{len(history)} jobs in history")


# -- chaos ----------------------------------------------------------------------

def chaos(workdir: str) -> None:
    """Faults against the machinery that runs simulations; the records
    that survive must equal the fault-free run's.

    1. A seeded plan kills one pool worker and raises in another; with
       one retry the sweep completes with identical rows.
    2. ``FlakyWrites`` fails store appends under a running job; the
       manager's write retries absorb them.
    3. A real ``repro serve`` is SIGKILL'd mid-job; a restarted daemon
       resumes the job from its checkpoint and finishes with records
       equal to ``repro sweep --jsonl``.
    4. A wedged shard mesh raises ``ShardStallError`` with a snapshot of
       every shard within the stall budget instead of hanging.
    """
    cells = expand(GRIDS["chaos-pool"])
    reference, _ = run_lines(cells)
    plan = seeded_plan(seed=7, cells_total=len(cells), kills=1, errors=1)
    faulted, report = run_lines(cells, jobs=2, retries=1, cell_hook=plan)
    if not report.ok:
        raise CheckFailed(f"chaos sweep failed cells: "
                          f"{[r.cell.label() for r in report.errors]}")
    if not report.retried:
        raise CheckFailed(f"fault plan {plan!r} injected nothing")
    check_parity(reference, faulted, "pool crash parity")
    log(f"pool crash parity ok ({len(cells)} cells, "
        f"{len(report.retried)} retried, plan {plan!r})")

    grid = GRIDS["chaos-store"]
    reference, _ = run_lines(expand(grid))
    store = Store(":memory:")
    flaky = FlakyWrites(fail_on={1, 2})  # first cell's flush, twice
    store.write_fault = flaky
    try:
        current = run_manager_job(store, submission(grid, jobs=1))
        if current["state"] != "completed":
            raise CheckFailed(f"job under write faults ended "
                              f"{current['state']}: {current['error']}")
        if flaky.failures < 2:
            raise CheckFailed("write faults never fired")
        check_parity(reference, store.fetch_records(current["id"]),
                     "store write-fault parity")
    finally:
        store.close()
    log(f"store write-fault parity ok ({flaky.failures} faults absorbed)")

    grid = GRIDS["chaos-resume"]
    reference_out = sweep(workdir, grid, "chaos-sweep")
    db = os.path.join(workdir, "chaos.db")
    options = ("--workers", "1", "--pool", "1", "--drain-grace", "1")
    with daemon(workdir, db, *options) as (process, base):
        job_id = post(base, "/v1/jobs", submission(grid, jobs=1))["job"]["id"]
        # the crash point is after at least one checkpointed cell and
        # before the last: the resume path has work on both sides
        current = mid_job(
            base, job_id, lambda current: current["record_count"] >= 1)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10.0)
    log(f"daemon SIGKILL'd mid-job "
        f"(~{current['record_count']} records flushed)")
    with daemon(workdir, db, *options) as (_, base):
        current = finished(base, job_id)
        if current["state"] != "completed":
            raise CheckFailed(f"resumed job ended {current['state']}: "
                              f"{current.get('error')}")
        if current["resumes"] < 1:
            raise CheckFailed("job completed without a recorded resume")
        lines = get(base, f"/v1/jobs/{job_id}/records").splitlines()
        check_parity(read_lines(f"{reference_out}.jsonl"), lines,
                     "daemon resume parity")
        if json.loads(get(base, "/v1/stats"))["workers"]["jobs_resumed"] < 1:
            raise CheckFailed("stats never counted the resume")
    log(f"daemon resume parity ok ({len(lines)} records, "
        f"resumes={current['resumes']})")

    def wedged(shard_id: int, shard_count: int, endpoint: Any) -> None:
        if shard_id == 0:
            time.sleep(3600.0)  # wedged before its first protocol round
            return
        for peer in endpoint.peers:
            endpoint.send(peer, (0.0, False, []))
        for peer in endpoint.peers:
            endpoint.recv(peer)  # parked on the wedged shard until the close
    started = time.monotonic()
    try:
        run_sharded(wedged, 2, stall_budget=1.0)
    except ShardStallError as error:
        elapsed = time.monotonic() - started
        if elapsed > 30.0:
            raise CheckFailed(f"stall detected only after {elapsed:.1f}s")
        if sorted(error.snapshot) != [0, 1]:
            raise CheckFailed(f"stall snapshot incomplete: {error.snapshot}")
        log(f"shard stall detected in {elapsed:.1f}s with snapshot for "
            f"{len(error.snapshot)} shards")
        return
    raise CheckFailed("wedged shard mesh did not raise ShardStallError")


CONDITIONS = {"jobs": jobs, "hashseed": hashseed, "serve": serve,
              "chaos": chaos}


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        description="Byte parity of records under one named condition.")
    parser.add_argument("condition", choices=list(CONDITIONS))
    condition = parser.parse_args(argv).condition
    sys.modules["networkx"] = None  # type: ignore[assignment]
    with tempfile.TemporaryDirectory(prefix="repro-parity-") as workdir:
        with open(os.path.join(workdir, "sitecustomize.py"), "w") as handle:
            handle.write("import sys\nsys.modules['networkx'] = None\n")
        CONDITIONS[condition](workdir)
    log(f"{condition}: every check held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
