"""The six workloads: generators, rounds and output checks.

Every workload is a pair: ``generate(seed, quick) -> inputs`` — the only
place the seed goes — and a :class:`Workload` whose ``round(inputs, tr)``
runs one closed-loop round through public ``repro`` calls and whose
``verify(inputs, lines, tr)`` runs the reference the round's records are
compared with. ``bench/README.md`` says why each workload exists and why
it is sized as it is.

Amount of work per round is the same for every seed by construction
(stratified generators, several cells per round) because the driver
compares runs made with different seeds.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import registry, scale
from repro.experiments.runner import (SweepCell, SweepRunner, execute_cell,
                                      expand_grid, freeze_overrides)
from repro.metrics.report import record_line
from repro.netsim.engine import Simulator
from repro.netsim.shard import ShardedSimulator
from repro.server.store import TERMINAL, Store
from repro.topology.factories import arppath
from repro.topology.library import (grid, populate_access_ports,
                                    scale_topology)
from repro.topology.partition import partition_network
from repro.traffic.matrix import (DEFAULT_ZIPF_ALPHA, TrafficMatrix,
                                  zipf_rank)

from bench import ROOT

Check = Tuple[str, bool]

#: Flyweight endpoints behind each of the grid's four corner ports.
ENDPOINTS_PER_PORT = 2500
#: Sweep pool size: this box has two CPUs.
JOBS = 2


@dataclass
class Round:
    """What one round produced."""

    work: float
    lines: List[str]
    checks: List[Check]
    operations: int = 0                   # cells / requests that succeeded
    wall: Optional[float] = None          # set when not the call's wall
    first_result: Optional[float] = None  # set when results stream
    sim: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One workload; subclasses fill in ``round`` and maybe ``verify``."""

    #: Unit of ``Round.work``, so ``work_per_s`` can be read.
    work_unit = ""
    #: CPUs a round keeps busy; the yardstick beside it loads as many.
    cpus = 1

    def __init__(self, tmp: str):
        self.tmp = tmp

    def open(self) -> None:
        """Bring up what rounds need (part of set-up time)."""

    def close(self) -> None:
        """Tear down whatever :meth:`open` started."""

    def extra_cpu(self) -> float:
        """CPU seconds burnt so far outside this process tree."""
        return 0.0

    def round(self, inputs: Any, tr) -> Round:
        raise NotImplementedError

    def verify(self, inputs: Any, lines: List[str], tr
               ) -> Tuple[List[Check], Dict[str, float]]:
        """Reference run after the rounds, compared with their *lines*.

        A ``reference_wall_s`` entry is the wall of an in-process
        reference whose phase spans *tr* recorded.
        """
        return [], {}

    def side_metrics(self, inputs: Any
                     ) -> Tuple[List[Check], Dict[str, float]]:
        """Traced pass only: standalone measurements of single layers."""
        return [], {}


def _encode(rows: List[Dict[str, Any]], tr) -> List[str]:
    with tr.span("report.encode"):
        return [record_line(row) for row in rows]


def _cell_checks(results, cells) -> Dict[str, Any]:
    """Cells that completed count as operations, the others as failures."""
    done = sum(result.ok for result in results)
    return {"operations": done,
            "checks": [("sweep cell completed", False)]
            * (len(cells) - done)}


# -- unicast_fabric ----------------------------------------------------------

def generate_unicast_fabric(seed: int, quick: bool) -> Dict[str, Any]:
    """Long flows between every ordered pair of corner populations.

    Stratified: each ordered corner pair carries the same flow sizes, so
    hop count x packets — the work — does not depend on the seed. The
    seed picks the endpoints (Zipf-popular sources, uniform
    destinations) and the start order.
    """
    rng = random.Random(seed)
    side = 8 if quick else 15
    mix = [(40, 120), (120, 1400)] if quick \
        else [(100, 120)] * 3 + [(350, 1400)]
    corners = [f"H{i}P" for i in range(4)]
    size = ENDPOINTS_PER_PORT - 1
    flows = []
    for src in corners:
        for dst in corners:
            if src == dst:
                continue
            for packets, nbytes in mix:
                source = zipf_rank(rng, DEFAULT_ZIPF_ALPHA, size) - 1
                flows.append((f"{src}#{source}",
                              f"{dst}#{rng.randrange(size)}",
                              packets, nbytes))
    rng.shuffle(flows)
    return {"side": side, "flows": flows}


def _fabric(side: int):
    sim = Simulator(seed=0, keep_trace_records=False)
    net = grid(sim, arppath(), side, side)
    populate_access_ports(net, ENDPOINTS_PER_PORT)
    return sim, net


class UnicastFabric(Workload):
    work_unit = "deliveries"

    def round(self, inputs, tr) -> Round:
        sim, net = _fabric(inputs["side"])
        net.run(2.0)
        with tr.span("matrix.generate"):
            matrix = TrafficMatrix(net)
            for src, dst, packets, nbytes in inputs["flows"]:
                matrix.add_flow(src, dst, packets=packets, interval=1e-3,
                                size=nbytes)
            matrix.start(stagger=1e-4, bulk=True)
        net.run(2.5)
        rows = [{"flow": index, "src": flow.src, "dst": flow.dst,
                 "sent": flow.sent, "received": flow.received,
                 "latency_sum": sum(flow.latencies)}
                for index, flow in enumerate(matrix.flows)]
        first = [flow.latencies[0] for flow in matrix.flows
                 if flow.latencies]
        return Round(
            work=sim.tracer.frames_delivered, lines=_encode(rows, tr),
            checks=[("matrix.delivery_rate == 1.0",
                     matrix.delivery_rate == 1.0)],
            sim={"events": sim.events_processed,
                 "frames_delivered": sim.tracer.frames_delivered},
            layer={"matrix.flows": len(matrix.flows),
                   "matrix.delivery_rate": matrix.delivery_rate,
                   "bridge.convergence_ms_sim":
                       1e3 * statistics.median(first) if first else 0.0})


# -- discovery_storm ---------------------------------------------------------

def generate_discovery_storm(seed: int, quick: bool) -> Dict[str, Any]:
    """Which endpoints of each corner population announce themselves."""
    rng = random.Random(seed)
    count = 40 if quick else 150
    return {"side": 6 if quick else 10,
            "announcers": {f"H{i}P": sorted(rng.sample(
                range(ENDPOINTS_PER_PORT - 1), count)) for i in range(4)}}


class DiscoveryStorm(Workload):
    work_unit = "deliveries"

    def round(self, inputs, tr) -> Round:
        sim, net = _fabric(inputs["side"])
        net.run(2.0)
        announced = 0
        with tr.span("matrix.generate"):
            for name, indices in inputs["announcers"].items():
                announced += net.population(name).announce_endpoints(
                    indices, spacing=1e-3)
        net.run(1.25)
        rows = [{"bridge": name,
                 "discovery_frames": bridge.apc.discovery_frames,
                 "discovery_filtered": bridge.apc.discovery_filtered,
                 "entries": bridge.state_entries()}
                for name, bridge in sorted(net.bridges.items())]
        # Loop-free broadcast: each race reaches each host exactly once.
        heard = [host.counters.arp_requests_received
                 for host in net.hosts.values()]
        return Round(
            work=sim.tracer.frames_delivered, lines=_encode(rows, tr),
            checks=[("every host heard every race exactly once",
                     heard == [announced] * len(heard))],
            sim={"events": sim.events_processed,
                 "frames_delivered": sim.tracer.frames_delivered})


# -- churn_repair ------------------------------------------------------------

def generate_churn_repair(seed: int, quick: bool) -> List[SweepCell]:
    """Link-flap churn cells on the 3x3 grid, one seed each.

    Three cells per round (one when quick): how many chunks a run
    delivers depends on how its outages fall, and the sum over three
    seeds varies about 1 % where one cell varies 2-5 %.
    """
    overrides = freeze_overrides({
        "topology": "grid", "protocols": ["arppath"],
        "duration": 40.0 if quick else 70.0, "flap_rate": 1.0,
        "down_time": 0.5, "fps": 200.0})
    count = 1 if quick else 3
    return [SweepCell(index, "churn", seed * count + index, overrides)
            for index in range(count)]


class ChurnRepair(Workload):
    work_unit = "sim_s"

    def round(self, inputs, tr) -> Round:
        results = [execute_cell(cell) for cell in inputs]
        rows = [row for result in results for row in result.rows]
        return Round(
            work=sum(cell.params()["duration"] for cell in inputs),
            lines=_encode(rows, tr), **_cell_checks(results, inputs))


# -- paper_sweep -------------------------------------------------------------

PAPER_SCENARIOS = ("fig2", "fig3", "stretch", "loopfree", "proxy",
                   "loadbalance", "ablations", "occupancy", "churn")
FAMILIES = ("arppath", "stp", "spb", "controller")


def generate_paper_sweep(seed: int, quick: bool) -> List[SweepCell]:
    seeds = list(range(seed, seed + (1 if quick else 3)))
    return expand_grid(PAPER_SCENARIOS, seeds)


def _stream_sorted(runner: SweepRunner):
    """Run a sweep; returns (results in cell order, first-result s)."""
    start = time.perf_counter()
    first = None
    results = []
    for result in runner.stream():
        if first is None:
            first = time.perf_counter() - start
        results.append(result)
    results.sort(key=lambda r: r.cell.index)
    return results, first


class PaperSweep(Workload):
    cpus = JOBS
    work_unit = "cells"

    def round(self, inputs, tr) -> Round:
        start = time.perf_counter()
        results, first = _stream_sorted(SweepRunner(inputs, jobs=JOBS))
        wall = time.perf_counter() - start
        rows = [row for result in results for row in result.rows]
        elapsed = sum(result.elapsed for result in results)
        return Round(
            work=len(inputs), lines=_encode(rows, tr), first_result=first,
            **_cell_checks(results, inputs),
            layer={"runner.cell_elapsed_sum_s": elapsed,
                   "runner.pool_efficiency": elapsed / (JOBS * wall),
                   "runner.result_pickle_bytes": sum(
                       len(pickle.dumps((r.cell.index, r)))
                       for r in results),
                   "runner.retried": sum(r.retried for r in results)})

    def verify(self, inputs, lines, tr):
        start = time.perf_counter()
        report = SweepRunner(inputs, jobs=1).run()
        serial_wall = time.perf_counter() - start
        serial = [record_line(row) for row in report.rows()]
        return ([("rows byte-identical to the jobs=1 rows",
                  report.ok and serial == lines)],
                {"runner.serial_wall_s": serial_wall,
                 "reference_wall_s": serial_wall})

    def side_metrics(self, inputs):
        checks, layer = [], {}
        start = time.perf_counter()
        SweepRunner(expand_grid(["ping"], [0, 1]), jobs=JOBS).run()
        layer["runner.spawn_s"] = time.perf_counter() - start
        seeds = sorted({cell.seed for cell in inputs})
        for family in FAMILIES:
            side = SweepRunner(expand_grid(
                ["scale"], seeds, {"sizes": [36], "protocols": [family]}),
                jobs=1).run()
            checks.append((f"family {family} side grid ran", side.ok))
            layer[f"family.{family}.cell_s"] = statistics.median(
                result.elapsed for result in side.cells)
        return checks, layer


# -- serve_job ---------------------------------------------------------------

def generate_serve_job(seed: int, quick: bool) -> Dict[str, Any]:
    """The job a client submits: record-heavy ``occupancy`` cells."""
    return {"scenario": "occupancy", "jobs": JOBS,
            "seeds": list(range(seed, seed + (4 if quick else 16)))}


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class ServeJob(Workload):
    """A real serve daemon (``bench.serve_daemon``) over loopback, one
    client, one request at a time."""

    work_unit = "cells"
    cpus = JOBS
    #: Seconds between polls of a running job.
    POLL_S = 0.02
    #: A job that has not finished by then fails the run, not hangs it.
    JOB_DEADLINE_S = 120.0

    def __init__(self, tmp: str):
        super().__init__(tmp)
        self.daemon: Optional[subprocess.Popen] = None
        self.port = 0

    def open(self) -> None:
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "bench.serve_daemon",
             "--db", os.path.join(self.tmp, "serve.db"),
             "--log-file", os.path.join(self.tmp, "serve.log"),
             "--pool", str(JOBS)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        line = self.daemon.stdout.readline()
        if not line:
            raise RuntimeError("serve daemon did not start")
        self.port = int(line)
        status, _ = self._request("GET", "/v1/health")
        if status != 200:
            raise RuntimeError(f"/v1/health answered {status}")

    def close(self) -> None:
        if self.daemon is None:
            return
        self.daemon.stdin.close()  # its cue to stop
        try:
            self.daemon.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()
        self.daemon = None

    def extra_cpu(self) -> float:
        """Daemon CPU (with the pool workers it reaped) from /proc."""
        with open(f"/proc/{self.daemon.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # utime, stime, cutime, cstime: fields 14-17 of proc(5).
        ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
        return ticks / os.sysconf("SC_CLK_TCK")

    def _request(self, method: str, path: str, body: Any = None
                 ) -> Tuple[int, str]:
        """One request on a fresh connection: (status, body text)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30.0)
        try:
            payload = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=payload, headers={
                "Content-Type": "application/json"} if payload else {})
            response = conn.getresponse()
            return response.status, response.read().decode()
        finally:
            conn.close()

    def round(self, inputs, tr) -> Round:
        failed: List[Check] = []
        took: Dict[str, List[float]] = {"submit": [], "records": [],
                                        "status": []}

        def call(kind: str, method: str, path: str, body=None) -> str:
            start = time.perf_counter()
            status, text = self._request(method, path, body)
            took[kind].append(1e3 * (time.perf_counter() - start))
            if status >= 300:
                failed.append((f"{method} {path} -> {status}", False))
            return text

        lines: List[str] = []
        first = last = None
        submitted = time.perf_counter()
        with tr.span("serve.submit"):
            job_id = json.loads(call("submit", "POST", "/v1/jobs",
                                     inputs))["job"]["id"]
        with tr.span("serve.poll"):
            while True:
                text = call("records", "GET", f"/v1/jobs/{job_id}/records"
                                              f"?offset={len(lines)}")
                if text:
                    last = time.perf_counter() - submitted
                    if first is None:
                        first = last
                    lines.extend(text.splitlines())
                job = json.loads(call("status", "GET",
                                      f"/v1/jobs/{job_id}"))["job"]
                if job["state"] in TERMINAL \
                        and len(lines) == job["record_count"]:
                    break
                if time.perf_counter() - submitted > self.JOB_DEADLINE_S:
                    raise RuntimeError(f"job {job_id} still {job['state']}")
                time.sleep(self.POLL_S)
        cells = len(inputs["seeds"])
        requests = sum(map(len, took.values()))
        return Round(
            work=cells, lines=lines, wall=last, first_result=first,
            operations=requests - len(failed),
            checks=failed + [("job completed", job["state"] == "completed"
                              and job["cells_done"] == cells)],
            layer={"serve.submit_ms": took["submit"][0],
                   "serve.status_get_ms": statistics.median(took["status"]),
                   "serve.status_get_p90_ms":
                       _percentile(took["status"], 0.9),
                   "serve.stream_ms": statistics.median(took["records"]),
                   "serve.poll_count": len(took["status"]),
                   "serve.first_record_s": first or 0.0,
                   "serve.queue_wait_s":
                       job["started_at"] - job["created_at"],
                   "serve.job_run_s":
                       job["finished_at"] - job["started_at"]})

    def verify(self, inputs, lines, tr):
        cells = expand_grid([inputs["scenario"]], inputs["seeds"])
        start = time.perf_counter()
        results, _ = _stream_sorted(SweepRunner(cells, jobs=JOBS))
        wall = time.perf_counter() - start
        self.direct_cells = [[record_line(row) for row in result.rows]
                             for result in results]
        direct = [line for cell in self.direct_cells for line in cell]
        return ([("NDJSON byte-identical to record_line of the bare runner",
                  direct == lines)], {"serve.direct_wall_s": wall})

    def side_metrics(self, inputs):
        """Encoder and store alone, on the lines :meth:`verify` made."""
        per_cell = self.direct_cells
        direct = [line for cell in per_cell for line in cell]
        rows = [json.loads(line) for line in direct]
        start = time.perf_counter()
        for row in rows:
            record_line(row)
        encode = time.perf_counter() - start
        store = Store(os.path.join(self.tmp, "probe.db"))
        try:
            job = store.create_job(inputs, cells_total=len(per_cell))
            store.set_running(job, len(per_cell))
            start = time.perf_counter()
            for index, cell_lines in enumerate(per_cell):
                store.append_records(job, cell_lines, cell_index=index,
                                     cells_flushed=index + 1)
                store.set_progress(job, index + 1)
            append = time.perf_counter() - start
            start = time.perf_counter()
            fetched = store.fetch_records(job)
            fetch = time.perf_counter() - start
        finally:
            store.close()
        return ([("store returns the appended lines", fetched == direct)],
                {"report.record_line_us": 1e6 * encode / len(rows),
                 "report.record_bytes": sum(map(len, direct)) / len(direct),
                 "store.append_ms_per_cell": 1e3 * append / len(per_cell),
                 "store.fetch_records_ms": 1e3 * fetch})


# -- shard_pair --------------------------------------------------------------

def generate_shard_pair(seed: int, quick: bool) -> Dict[str, Any]:
    """Arguments of one population ``scale`` cell, split over 2 engines."""
    return {"kind": "grid", "size": 36 if quick else 100,
            "pairs": 4 if quick else 12, "probes": 16, "seed": seed,
            "endpoints_per_port": ENDPOINTS_PER_PORT}


def _noop_shard_worker(shard_id: int, shard_count: int, endpoint) -> int:
    return shard_id


def _scale_lines(row, tr) -> List[str]:
    return _encode([dataclasses.asdict(row)], tr)


class ShardPair(Workload):
    work_unit = "frames"

    def __init__(self, tmp: str):
        super().__init__(tmp)
        self.spec = registry.protocol_specs(["arppath"])[0]

    def round(self, inputs, tr) -> Round:
        row = scale.run_case_sharded(self.spec, shards=2, **inputs)
        return Round(
            work=row.frames_sent, lines=_scale_lines(row, tr),
            checks=[("every probe answered",
                     row.probes_answered == row.probes_sent)],
            layer={"bridge.convergence_ms_sim":
                   1e3 * (row.convergence_s or 0.0),
                   "engine.peak_pending_events": row.peak_pending_events,
                   "engine.peak_wheel_timers": row.peak_wheel_timers})

    def verify(self, inputs, lines, tr):
        start = time.perf_counter()
        single = scale.run_case(self.spec, **inputs)
        single_wall = time.perf_counter() - start
        sharded = json.loads(lines[0])
        reference = json.loads(_scale_lines(single, tr)[0])
        # events_processed is reported, not checked: the sharded engines
        # are one event short of run_case on some inputs (size 100,
        # seed 3), a defect this benchmark found and leaves visible.
        drift = abs(sharded.pop("events_processed")
                    - reference.pop("events_processed"))
        return ([("row equal to run_case", sharded == reference)],
                {"shard.single_engine_wall_s": single_wall,
                 "reference_wall_s": single_wall,
                 "shard.events_drift": drift})

    def side_metrics(self, inputs):
        start = time.perf_counter()
        ShardedSimulator(2).run(_noop_shard_worker)
        spawn = time.perf_counter() - start
        net, _, _ = scale_topology(
            Simulator(seed=0), self.spec.factory, inputs["kind"],
            inputs["size"], seed=inputs["seed"],
            endpoints_per_port=inputs["endpoints_per_port"])
        plan = partition_network(net, 2)
        return [], {"shard.spawn_s": spawn,
                    "shard.cut_links": len(plan.cut_links),
                    "shard.lookahead_us": 1e6 * plan.lookahead}


#: name -> (generator, workload class); the order ``bench.run`` uses.
WORKLOADS: Dict[str, Tuple[Callable[[int, bool], Any], type]] = {
    "unicast_fabric": (generate_unicast_fabric, UnicastFabric),
    "discovery_storm": (generate_discovery_storm, DiscoveryStorm),
    "churn_repair": (generate_churn_repair, ChurnRepair),
    "paper_sweep": (generate_paper_sweep, PaperSweep),
    "serve_job": (generate_serve_job, ServeJob),
    "shard_pair": (generate_shard_pair, ShardPair),
}

#: Workloads whose whole round runs in the measuring process, so the
#: phase spans must add up to the round wall.
IN_PROCESS = ("unicast_fabric", "discovery_storm", "churn_repair")
