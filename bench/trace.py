"""Spans recorded from outside the program, around calls into its layers.

A span is ``{name, start, end, parent, workload, round}``; spans stay in
memory and are written once, at exit. Self time of a span is its
duration minus the part its children cover. Untraced rounds get
:data:`NULL`, whose ``span`` does nothing, so workload code has one path.

:func:`watch_networks` is how phases *inside* a scenario call are seen
without touching ``src/``: while a traced round runs, the public
``Network.__init__`` / ``Network.run`` are wrapped so that every network
built records ``topology.build`` (construction up to its first ``run``),
``netsim.warmup`` (the first ``run``) and ``netsim.traffic`` (every later
``run``), and is kept for reading its counters afterwards.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional

from repro.netsim.meminfo import MemorySampler
from repro.topology.builder import Network

#: Phase spans whose sum is compared with the round wall
#: (``budget.residual_share``).
PHASES = ("topology.build", "netsim.warmup", "matrix.generate",
          "netsim.traffic", "report.encode")


class Tracer:
    """In-memory span recorder for one workload."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.round = -1
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._epoch = time.perf_counter()

    def begin(self, name: str) -> int:
        self.spans.append({
            "name": name, "start": time.perf_counter() - self._epoch,
            "end": None, "parent": self._open[-1] if self._open else None,
            "workload": self.workload, "round": self.round})
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter() - self._epoch
        self._open.remove(index)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def seconds(self, name: str, round_index: int) -> float:
        """Total duration of the spans called *name* in one round."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["round"] == round_index
                   and s["end"] is not None)

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span["end"] is not None:
                out[span["name"]] = out.get(span["name"], 0.0) \
                    + span["end"] - span["start"] - covered[index]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"workload": self.workload, "spans": self.spans,
                       "self_seconds": self.self_seconds()}, handle)


class _NullTracer:
    """Stands in for a Tracer in untraced rounds."""

    enabled = False
    round = -1

    def span(self, name: str):
        return nullcontext()


NULL = _NullTracer()


class NetworkWatch:
    """The networks built while :func:`watch_networks` was active."""

    def __init__(self) -> None:
        self.networks: List[Network] = []
        self.samplers: List[MemorySampler] = []

    def counts(self) -> Dict[str, float]:
        """Deterministic per-layer counts, summed over the networks."""
        sims = {id(net.sim): net.sim for net in self.networks}.values()
        for sampler in self.samplers:
            sampler.stop()
        events = sum(sim.events_processed for sim in sims)
        delivered = sum(sim.tracer.frames_delivered for sim in sims)
        queue_drops = carrier_drops = 0
        for net in self.networks:
            for link in net.links.values():
                queue_drops += sum(link.queue_drops.values())
                carrier_drops += sum(link.carrier_drops.values())
        bridges = [bridge for net in self.networks
                   for bridge in net.bridges.values()]
        arppath = [b.apc for b in bridges if hasattr(b, "apc")]
        discovery = sum(apc.discovery_frames for apc in arppath)
        filtered = sum(apc.discovery_filtered for apc in arppath)
        # ARP broadcasts and PathRequests race alike; both can be filtered.
        races = discovery + sum(apc.path_requests_seen for apc in arppath)
        repairs = [t for b in bridges for t in b.repair_events()]
        peaks = {} if not self.samplers else {
            "engine.peak_pending_events": max(
                s.peak_pending_events for s in self.samplers),
            "engine.peak_wheel_timers": max(
                s.peak_wheel_timers for s in self.samplers)}
        return {
            **peaks,
            "engine.events": events,
            "engine.events_per_delivery":
                events / delivered if delivered else 0.0,
            "link.frames_delivered": delivered,
            "link.queue_drops": queue_drops,
            "link.carrier_drops": carrier_drops,
            "bridge.frames_received": sum(b.counters.received
                                          for b in bridges),
            "bridge.discovery_frames": discovery,
            "bridge.discovery_filtered": filtered,
            "bridge.race_accept_ratio":
                1.0 - filtered / races if races else 0.0,
            "bridge.unicast_misses": sum(apc.unicast_misses
                                         for apc in arppath),
            "bridge.repairs": sum(
                b.protocol_counters().get("repairs_completed", 0)
                for b in bridges),
            "bridge.repair_latency_ms_sim":
                1e3 * sum(repairs) / len(repairs) if repairs else 0.0,
            "population.state_entries": sum(
                pop.state_entries() for net in self.networks
                for pop in net.populations.values()),
        }


@contextmanager
def watch_networks(tracer: Tracer, sample: bool = True
                   ) -> Iterator[NetworkWatch]:
    """Record build / warm-up / traffic spans of every Network built.

    *sample* also arms a ``MemorySampler`` on each network's engine for
    the peak counts. Its ticks are events of their own, so a run whose
    records are compared byte for byte passes ``sample=False``.
    """
    watch = NetworkWatch()
    original_init, original_run = Network.__init__, Network.run
    building: Dict[int, int] = {}

    def traced_init(net: Network, *args: Any, **kwargs: Any) -> None:
        building[id(net)] = tracer.begin("topology.build")
        watch.networks.append(net)
        original_init(net, *args, **kwargs)

    def traced_run(net: Network, duration: float) -> None:
        build: Optional[int] = building.pop(id(net), None)
        if build is None:
            name = "netsim.traffic"
        else:
            tracer.end(build)
            name = "netsim.warmup"
            if sample:
                sampler = MemorySampler(net.sim, interval=0.5)
                sampler.start()
                watch.samplers.append(sampler)
        with tracer.span(name):
            original_run(net, duration)

    Network.__init__, Network.run = traced_init, traced_run
    try:
        yield watch
    finally:
        Network.__init__, Network.run = original_init, original_run
        for build in building.values():  # built but never run
            tracer.end(build)
