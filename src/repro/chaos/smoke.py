"""Chaos smoke driver: ``python -m repro.chaos.smoke``.

The CI ``chaos-smoke`` job runs this end to end on a real checkout.
Four steps, each ending in the acceptance assertion (surviving records
byte-identical to the fault-free reference) or a named failure:

1. **Pool crash parity** — a seeded fault plan kills one pool worker
   and raises in another mid-sweep; with one retry the sweep must
   complete with byte-identical rows.
2. **Store write faults** — ``FlakyWrites`` fails append transactions
   under a running job; the manager's write retries must absorb them
   with no record loss or duplication.
3. **Daemon SIGKILL + resume** — a real ``repro serve`` process is
   SIGKILL'd mid-job; a restarted daemon must resume the job from its
   checkpoint and finish with records byte-identical to
   ``repro sweep --jsonl`` of the same grid.
4. **Shard stall watchdog** — a deliberately wedged shard mesh must
   abort with :class:`~repro.netsim.shard.ShardStallError` (carrying
   the per-shard progress snapshot) within the stall budget, not hang.

Exit status 0 means every step held.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List

from repro.chaos.faults import FlakyWrites, seeded_plan
from repro.chaos.harness import check_parity, run_lines, run_manager_job
from repro.experiments import registry, runner
from repro.netsim.shard import ShardStallError, run_sharded


class SmokeError(AssertionError):
    """A smoke step failed for a reason other than record parity."""


def _log(message: str) -> None:
    print(f"[chaos-smoke] {message}", flush=True)


# -- step 1: pool crash parity ------------------------------------------------

def step_pool_crash_parity() -> None:
    registry.load_all()
    cells = runner.expand_grid(
        ["proxy"], seeds=[0, 1, 2, 3],
        axes={"rows": [2], "cols": [2], "rounds": [1]})
    reference, _ = run_lines(cells)
    plan = seeded_plan(seed=7, cells_total=len(cells), kills=1, errors=1)
    chaos, report = run_lines(cells, jobs=2, retries=1, cell_hook=plan)
    if not report.ok:
        raise SmokeError(f"chaos sweep failed cells: "
                         f"{[r.cell.label() for r in report.errors]}")
    if not report.retried:
        raise SmokeError(f"fault plan {plan!r} injected nothing")
    check_parity(reference, chaos, "pool crash parity")
    _log(f"pool crash parity ok ({len(cells)} cells, "
         f"{len(report.retried)} retried, plan {plan!r})")


# -- step 2: store write faults -----------------------------------------------

def step_store_write_faults() -> None:
    from repro.metrics.report import record_line
    from repro.server.store import Store

    registry.load_all()
    spec = {"scenario": "proxy", "seeds": [0, 1, 2],
            "set": {"rows": [2], "cols": [2], "rounds": [1]},
            "jobs": 1}
    cells = runner.expand_grid(["proxy"], spec["seeds"], spec["set"])
    reference, _ = run_lines(cells)

    store = Store(":memory:")
    flaky = FlakyWrites(fail_on={1, 2})  # first cell's flush, twice
    store.write_fault = flaky
    try:
        job = run_manager_job(store, spec)
        if job["state"] != "completed":
            raise SmokeError(f"job under write faults ended "
                             f"{job['state']}: {job['error']}")
        if flaky.failures < 2:
            raise SmokeError("write faults never fired")
        check_parity(reference, store.fetch_records(job["id"]),
                     "store write-fault parity")
    finally:
        store.close()
    _log(f"store write-fault parity ok "
         f"({flaky.failures} faults absorbed)")


# -- step 3: daemon SIGKILL + resume ------------------------------------------

_HTTP_TIMEOUT = 5.0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _get(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path,
                                timeout=_HTTP_TIMEOUT) as response:
        return response.read().decode()


def _post(base: str, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    request = urllib.request.Request(
        base + path, method="POST", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request,
                                timeout=_HTTP_TIMEOUT) as response:
        return json.loads(response.read())


def _start_daemon(port: int, db: str, log_file: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [path for path in (os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
            env.get("PYTHONPATH", "")) if path])
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--host", "127.0.0.1", "--port", str(port), "--db", db,
         "--workers", "1", "--pool", "1", "--drain-grace", "1",
         "--log-file", log_file],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    base = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SmokeError(
                f"daemon exited {process.returncode} before serving "
                f"(log: {log_file})")
        try:
            _get(base, "/v1/health")
            return process
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    process.kill()
    raise SmokeError("daemon never answered /v1/health")


def step_daemon_sigkill_resume(workdir: str) -> None:
    db = os.path.join(workdir, "chaos-serve.db")
    port = _free_port()
    base = f"http://127.0.0.1:{port}"
    seeds = list(range(24))
    grid = {"scenario": "churn", "seeds": seeds,
            "set": {"duration": [120], "protocols": ["arppath"]},
            "jobs": 1}

    # The fault-free reference: the CLI sweep of the identical grid.
    reference_path = os.path.join(workdir, "reference.jsonl")
    sweep = subprocess.run(
        [sys.executable, "-m", "repro.cli", "sweep", "churn",
         "--seeds", *[str(seed) for seed in seeds],
         "--set", "duration=120", "--set", "protocols=arppath",
         "--jsonl", reference_path],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [path for path in (os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))),
                os.environ.get("PYTHONPATH", "")) if path])),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if sweep.returncode != 0:
        raise SmokeError(f"reference sweep exited {sweep.returncode}")
    with open(reference_path) as handle:
        reference = handle.read().splitlines()

    daemon = _start_daemon(port, db, os.path.join(workdir, "serve1.log"))
    try:
        job = _post(base, "/v1/jobs", grid)["job"]
        job_id = job["id"]
        # Wait for a partial flush, then SIGKILL mid-job: the crash
        # point is after at least one checkpointed cell, before the
        # last — the resume path has real work on both sides.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            current = json.loads(
                _get(base, f"/v1/jobs/{job_id}"))["job"]
            if current["state"] in ("completed", "failed", "cancelled"):
                raise SmokeError(
                    f"job finished ({current['state']}) before the "
                    "kill; enlarge the grid")
            if current["record_count"] >= 1:
                break
            time.sleep(0.02)
        else:
            raise SmokeError("no records flushed within 60s")
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=10.0)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10.0)
    _log(f"daemon SIGKILL'd mid-job "
         f"(~{current['record_count']} records flushed)")

    daemon = _start_daemon(port, db, os.path.join(workdir, "serve2.log"))
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            current = json.loads(
                _get(base, f"/v1/jobs/{job_id}"))["job"]
            if current["state"] in ("completed", "failed", "cancelled"):
                break
            time.sleep(0.05)
        if current["state"] != "completed":
            raise SmokeError(f"resumed job ended {current['state']}: "
                             f"{current.get('error')}")
        if current["resumes"] < 1:
            raise SmokeError("job completed without a recorded resume")
        lines = _get(base, f"/v1/jobs/{job_id}/records").splitlines()
        check_parity(reference, lines, "daemon resume parity")
        stats = json.loads(_get(base, "/v1/stats"))
        if stats["workers"]["jobs_resumed"] < 1:
            raise SmokeError("stats never counted the resume")
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait(timeout=10.0)
    _log(f"daemon resume parity ok ({len(lines)} records, "
         f"resumes={current['resumes']})")


# -- step 4: shard stall watchdog ---------------------------------------------

def _wedged_worker(shard_id: int, shard_count: int, endpoint) -> None:
    if shard_id == 0:
        time.sleep(3600.0)  # wedged before its first protocol round
        return
    for peer in endpoint.peers:
        endpoint.send(peer, (0.0, False, []))
    for peer in endpoint.peers:
        endpoint.recv(peer)  # parked on the wedged shard until the close


def step_shard_stall() -> None:
    started = time.monotonic()
    try:
        run_sharded(_wedged_worker, 2, stall_budget=1.0)
    except ShardStallError as error:
        elapsed = time.monotonic() - started
        if elapsed > 30.0:
            raise SmokeError(
                f"stall detected only after {elapsed:.1f}s")
        if sorted(error.snapshot) != [0, 1]:
            raise SmokeError(f"stall snapshot incomplete: "
                             f"{error.snapshot}")
        _log(f"shard stall detected in {elapsed:.1f}s with snapshot "
             f"for {len(error.snapshot)} shards")
        return
    raise SmokeError("wedged shard mesh did not raise ShardStallError")


def main() -> int:
    steps: List[Any] = [
        ("pool crash parity", step_pool_crash_parity, False),
        ("store write faults", step_store_write_faults, False),
        ("daemon SIGKILL + resume", step_daemon_sigkill_resume, True),
        ("shard stall watchdog", step_shard_stall, False),
    ]
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        for name, step, wants_dir in steps:
            _log(f"step: {name}")
            step(workdir) if wants_dir else step()
    _log("all chaos steps held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
