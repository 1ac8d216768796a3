"""One workload in a fresh interpreter: set up, warm up, run rounds.

Started by ``bench.run`` only. Prints two JSON lines on stdout:
``{"event": "ready"}`` when set-up (imports, ``registry.load_all()``, any
daemon, one quarter-size warm-up round) is done — the parent times set-up
from spawn to this line — and ``{"event": "result", ...}`` at the end.

All times in the result are as measured. ``yardstick_s`` says how fast
the machine was meanwhile; the parent applies it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Tuple

from repro.experiments import registry

from bench import OUT, probes
from bench.env import calibrate, yardstick
from bench.trace import NULL, PHASES, Tracer, watch_networks
from bench.workloads import IN_PROCESS, WORKLOADS

#: ``round`` value of spans recorded during the reference run.
REFERENCE = -2

#: Per-layer ratios of a reference wall to the workload's wall:
#: name -> (the reference, True when the workload is the numerator).
RATIOS = {
    "runner.parallel_speedup": ("runner.serial_wall_s", False),
    "serve.overhead_ratio": ("serve.direct_wall_s", True),
    "shard.speedup_vs_single": ("shard.single_engine_wall_s", False),
}


def _emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _cpu_seconds(workload) -> float:
    """CPU of this process, the children it reaped, and any daemon."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() + children.ru_utime + children.ru_stime
            + workload.extra_cpu())


class Measurement:
    """The rounds of one workload, then its checks and layer metrics."""

    def __init__(self, workload, inputs, name: str, trace: bool):
        self.workload, self.inputs, self.name = workload, inputs, name
        self.tracer = Tracer(name) if trace else None
        self.rounds: List[Dict[str, Any]] = []
        #: traced? -> (Round, NetworkWatch or None) of the latest round.
        self.last: Dict[bool, Tuple[Any, Any]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    # -- rounds --------------------------------------------------------------

    def run_round(self, traced: bool) -> None:
        workload = self.workload
        tracer = self.tracer if traced else NULL
        gc.collect()
        entry: Dict[str, Any] = {
            "traced": traced, "calib_ns": calibrate(50_000),
            "yardstick_before": yardstick(workload.cpus)}
        if traced:
            tracer.round = len(self.rounds)
        with (watch_networks(tracer) if traced else nullcontext()) as watch:
            cpu, start = _cpu_seconds(workload), time.perf_counter()
            with tracer.span("round"):
                result = workload.round(self.inputs, tracer)
            wall = time.perf_counter() - start
            entry["cpu"] = _cpu_seconds(workload) - cpu
        if traced:
            entry["phases"] = {name: tracer.seconds(name, tracer.round)
                               for name in PHASES}
        entry["yardstick_after"] = yardstick(workload.cpus)
        entry.update(
            call_wall=wall, wall=result.wall or wall, work=result.work,
            first_result=result.first_result or result.wall or wall,
            digest=hashlib.sha256(
                "\n".join(result.lines).encode()).hexdigest(),
            sim=result.sim, layer=result.layer)
        self.attempted += 1 + result.operations
        for name, ok in result.checks:
            self.check(name, ok)
        self.rounds.append(entry)
        self.last[traced] = (result, watch)

    def run_rounds(self, rounds, seconds) -> None:
        """*rounds* untraced rounds, or as many as fit in *seconds*; when
        tracing, a traced round follows each untraced one."""
        begun = time.perf_counter()
        while True:
            self.run_round(False)
            if self.tracer is not None:
                self.run_round(True)
            if rounds is not None:
                if len(self.untraced) >= rounds:
                    return
            elif time.perf_counter() - begun >= seconds:
                return

    @property
    def untraced(self) -> List[Dict[str, Any]]:
        return [entry for entry in self.rounds if not entry["traced"]]

    @property
    def traced(self) -> List[Dict[str, Any]]:
        return [entry for entry in self.rounds if entry["traced"]]

    # -- checks after the rounds ---------------------------------------------

    def verify(self) -> Tuple[Dict[str, float], Any]:
        """Same inputs, same digest; then the workload's reference run.

        Untimed verification when untraced. When traced, the in-process
        reference is also watched: its phases and counts stand for a
        workload whose rounds run in child processes.
        """
        for group in (self.untraced, self.traced):
            if group:
                self.check("same inputs, same digest",
                           len({entry["digest"] for entry in group}) == 1)
        lines = self.last[False][0].lines
        watch = None
        if self.tracer is None:
            checks, layer = self.workload.verify(self.inputs, lines, NULL)
        else:
            self.tracer.round = REFERENCE
            with watch_networks(self.tracer, sample=False) as watch:
                checks, layer = self.workload.verify(self.inputs, lines,
                                                     self.tracer)
        for name, ok in checks:
            self.check(name, ok)
        return layer, watch

    # -- per-layer metrics (traced pass only) --------------------------------

    def layer_metrics(self, layer: Dict[str, float], reference_watch,
                      probe_seconds: float) -> Dict[str, float]:
        median = statistics.median
        untraced, traced = self.untraced, self.traced
        wall = median(entry["wall"] for entry in untraced)
        checks, side = self.workload.side_metrics(self.inputs)
        for name, ok in checks:
            self.check(name, ok)
        layer.update(side)
        for name in self.last[False][0].layer:
            layer[name] = median(entry["layer"][name] for entry in untraced)

        reference_wall = layer.pop("reference_wall_s", None)
        counts: Dict[str, float] = {}
        phases: Dict[str, float] = {}
        if self.name in IN_PROCESS:
            counts = self.last[True][1].counts()
            phases = {name: median(entry["phases"][name]
                                   for entry in traced) for name in PHASES}
            layer["budget.residual_share"] = median(
                abs(entry["call_wall"] - sum(entry["phases"].values()))
                / entry["call_wall"] for entry in traced)
        elif reference_wall is not None:
            counts = reference_watch.counts()
            phases = {name: self.tracer.seconds(name, REFERENCE)
                      for name in PHASES}
            layer["budget.residual_share"] = \
                abs(reference_wall - sum(phases.values())) / reference_wall
        received = counts.pop("bridge.frames_received", 0)
        layer.update(counts)
        layer.update({f"{name}_s": spent for name, spent in phases.items()})

        layer.update(probes.run_probes(probe_seconds))
        traffic_ns = 1e9 * phases.get("netsim.traffic", 0.0)
        if traffic_ns:  # estimates: probe cost x count over the phase
            races = counts["bridge.discovery_frames"]
            layer["engine.est_share"] = layer["engine.event_ns"] \
                * counts["engine.events"] / traffic_ns
            layer["link.est_share"] = layer["link.transmit_ns"] \
                * counts["link.frames_delivered"] / traffic_ns
            layer["bridge.est_share"] = (
                layer["bridge.handle_frame_arp_ns"] * races
                + layer["bridge.handle_frame_unicast_ns"]
                * (received - races)) / traffic_ns

        for name, (base, workload_on_top) in RATIOS.items():
            if base in layer:
                layer[name] = wall / layer[base] if workload_on_top \
                    else layer[base] / wall
        if self.name == "shard_pair":
            layer["shard.cpu_per_wall"] = \
                median(entry["cpu"] for entry in untraced) / wall
        layer["trace.overhead_share"] = \
            median(entry["wall"] for entry in traced) / wall - 1.0
        layer["env.calib_ns"] = median(entry["calib_ns"]
                                       for entry in self.rounds)
        layer["env.yardstick_ms"] = 1e3 * self.yardstick_s
        return layer

    @property
    def yardstick_s(self) -> float:
        return statistics.median(
            entry[key] for entry in self.rounds
            for key in ("yardstick_before", "yardstick_after"))

    def result(self, probe_seconds: float) -> Dict[str, Any]:
        layer, watch = self.verify()
        out: Dict[str, Any] = {
            "rounds": self.rounds, "yardstick_s": self.yardstick_s,
            "work_unit": self.workload.work_unit,
            "sim": dict(self.last[False][0].sim,
                        records_sha256=self.untraced[-1]["digest"])}
        if self.tracer is not None:
            out["layer"] = self.layer_metrics(layer, watch, probe_seconds)
            self.tracer.write(os.path.join(OUT, f"trace-{self.name}.json"))
        out.update(attempted=self.attempted, failures=self.failures)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    registry.load_all()
    generate, cls = WORKLOADS[args.workload]
    os.makedirs(args.tmp, exist_ok=True)
    workload = cls(args.tmp)
    result = None
    try:
        workload.open()
        workload.round(generate(args.seed, True), NULL)
        _emit({"event": "ready"})
        if not args.setup_only:
            measurement = Measurement(
                workload, generate(args.seed, args.quick), args.workload,
                args.trace)
            measurement.run_rounds(args.rounds, args.seconds)
            result = measurement.result(0.05 if args.quick else 0.3)
    finally:
        workload.close()
    if result is not None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mib"] = (own + reaped) / 1024.0
        _emit(dict(result, event="result"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
