"""EXP-C1: availability under sustained network churn.

The paper's headline resilience claim — Path Repair fixes paths without
a convergence protocol — is demonstrated in §3.2 with one-shot cable
pulls (:mod:`repro.experiments.fig3_repair`). This experiment
stress-tests the same claim the way resilience architectures are
actually evaluated: a *churn regime*. A probe stream runs between two
hosts while a scripted :class:`~repro.netsim.dynamics.EventTimeline`
flaps fabric links (Poisson arrivals, exponential down times), crashes
and power-cycles bridges (tables wiped), and migrates hosts between
edge bridges; the observable is the stream's availability — fraction
of the window traffic flowed, total downtime, and the repair-latency
distribution of the outages.

``scripted_failures`` additionally replays Fig. 3's deterministic cuts
of the *active* path, so a churn run with ``flap_rate=0`` reproduces
the static repair-latency numbers — the bridge between the two
experiments, and a regression anchor for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.experiments import registry
from repro.experiments.common import ProtocolSpec
from repro.metrics.availability import Availability, measure_availability
from repro.metrics.paths import PathObserver
from repro.metrics.report import format_table
from repro.netsim.dynamics import EventTimeline
from repro.netsim.engine import Simulator
from repro.topology.library import (CHURN_TOPOLOGIES, LOOP_FREE_TOPOLOGIES,
                                    churn_topology)
from repro.traffic.video import stream_between

#: Seconds the stream runs before churn starts (path establishment).
SETTLE = 2.0
#: Offset and spacing of the fig3-style scripted active-path cuts —
#: kept identical to fig3_repair's defaults so repair latencies match.
SCRIPTED_OFFSET = 1.0
SCRIPTED_SPACING = 2.0


@dataclass
class ChurnRow:
    """One protocol's behaviour under one churn schedule."""

    protocol: str
    topology: str
    flap_rate: float
    down_time: float
    duration: float
    crashes: int
    migrations: int
    scripted_failures: int
    flaps: int
    availability: Availability
    chunks_sent: int
    chunks_received: int
    duplicates: int
    repair_times: List[float] = field(default_factory=list)

    @property
    def delivery_rate(self) -> float:
        return self.chunks_received / self.chunks_sent \
            if self.chunks_sent else 0.0


@dataclass
class ChurnResult:
    rows: List[ChurnRow] = field(default_factory=list)

    def table(self) -> str:
        headers = ["protocol", "topology", "flaps", "availability",
                   "downtime_ms", "outages", "mttr_ms", "delivered",
                   "repairs", "repair_ms"]
        body = []
        for row in self.rows:
            avail = row.availability
            repairs = row.repair_times
            body.append([
                row.protocol, row.topology, row.flaps,
                f"{avail.availability:.4f}", avail.downtime * 1e3,
                avail.outages,
                avail.mttr * 1e3 if avail.repaired else None,
                f"{row.delivery_rate:.3f}", len(repairs),
                sum(repairs) / len(repairs) * 1e3 if repairs else None,
            ])
        return format_table(
            headers, body,
            title="Churn — stream availability under sustained dynamics "
                  "(flaps + crashes + migrations)")

    def records(self) -> List[Dict[str, Any]]:
        out = []
        for row in self.rows:
            repairs = row.repair_times
            record: Dict[str, Any] = {
                "protocol": row.protocol,
                "topology": row.topology,
                "flap_rate": row.flap_rate,
                "down_time": row.down_time,
                "duration": row.duration,
                "crashes": row.crashes,
                "migrations": row.migrations,
                "scripted_failures": row.scripted_failures,
                "flaps": row.flaps,
            }
            record.update(row.availability.as_row())
            record.update({
                "chunks_sent": row.chunks_sent,
                "chunks_received": row.chunks_received,
                "delivery_rate": row.delivery_rate,
                "duplicates": row.duplicates,
                "repair_count": len(repairs),
                "repair_latency_mean": (sum(repairs) / len(repairs)
                                        if repairs else None),
                "repair_latency_worst": max(repairs) if repairs else None,
            })
            out.append(record)
        return out


def run_protocol(protocol: ProtocolSpec, topology: str = "demo",
                 flap_rate: float = 0.2, down_time: float = 0.5,
                 duration: float = 20.0, crashes: int = 0,
                 migrations: int = 0, scripted_failures: int = 0,
                 fps: float = 25.0, seed: int = 0) -> ChurnRow:
    """Stream src→dst through *duration* seconds of scripted churn.

    ``scripted_failures`` turns on hop tracing: its cuts follow the
    path the stream is using, which the :class:`PathObserver` reads.
    """
    sim = Simulator(seed=seed, trace_hops=scripted_failures > 0)
    net, src, dst = churn_topology(sim, protocol.factory, topology,
                                   seed=seed)
    net.run(protocol.warmup)
    observer = PathObserver(net, dst) if scripted_failures > 0 else None
    source, sink = stream_between(net.host(src), net.host(dst), fps=fps)
    source.start()
    net.run(SETTLE)  # the stream establishes its path

    start = sim.now
    timeline = EventTimeline(net)
    timeline.random_churn(seed=seed, start=start, duration=duration,
                          flap_rate=flap_rate, mean_down_time=down_time,
                          crashes=crashes, migrations=migrations)
    timeline.arm()

    def cut_active_path() -> None:
        """Fig. 3's cable pull: kill the path the stream is using.

        The cut goes through the timeline's hold_down so a random flap
        of the same link cannot silently restore carrier."""
        bridges = observer.last_bridge_path()
        if not bridges:
            return
        path = (src,) + bridges + (dst,)
        for a, b in zip(path, path[1:]):
            if a in net.hosts or b in net.hosts:
                continue
            link = net.link_between(a, b)
            if link.up:
                timeline.hold_down(link.name)
                return

    for index in range(scripted_failures):
        sim.at(start + SCRIPTED_OFFSET + index * SCRIPTED_SPACING,
               cut_active_path)

    net.run(duration)
    end = sim.now
    source.stop()
    net.run(1.0)  # drain in-flight chunks

    counts = timeline.counts
    return ChurnRow(protocol=protocol.name, topology=topology,
                    flap_rate=flap_rate, down_time=down_time,
                    duration=duration, crashes=counts["crashes"],
                    migrations=counts["migrations"],
                    scripted_failures=scripted_failures,
                    flaps=counts["flaps"],
                    availability=measure_availability(
                        sink.arrivals, 1.0 / fps, window_start=start,
                        window_end=end),
                    chunks_sent=source.sent,
                    chunks_received=sink.received,
                    duplicates=sink.duplicates,
                    repair_times=[value for bridge in net.bridges.values()
                                  for value in bridge.repair_events()])


def churn(topology: str, protocols: List[str], flap_rate: float,
          down_time: float, duration: float, crashes: int,
          migrations: int, scripted_failures: int, fps: float,
          stp_scale: float, seeds: List[int]) -> ChurnResult:
    """The churn comparison across bridge families, one row per
    protocol per seed.

    A plain learning switch storms on any wiring with redundant paths,
    so requesting it on a loopy topology is refused up front.
    """
    if "learning" in protocols and topology not in LOOP_FREE_TOPOLOGIES:
        raise ValueError(
            f"protocol 'learning' storms on loopy topologies; use one of "
            f"{', '.join(LOOP_FREE_TOPOLOGIES)} (got {topology!r})")
    chosen = registry.protocol_specs(protocols, stp_scale=stp_scale)
    return ChurnResult(rows=[
        run_protocol(protocol, topology, flap_rate, down_time, duration,
                     crashes, migrations, scripted_failures, fps, seed)
        for seed in seeds for protocol in chosen])


registry.register(registry.Scenario(
    name="churn",
    title="Churn: availability under sustained link/bridge/host dynamics",
    params=(
        registry.Param("topology", str, "demo", choices=CHURN_TOPOLOGIES,
                       help="named wiring (demo, line, ring, grid)"),
        registry.protocols_param(["arppath", "stp", "spb"]),
        registry.Param("flap_rate", float, 0.2,
                       help="fabric link flaps per second (Poisson)"),
        registry.Param("down_time", float, 0.5,
                       help="mean seconds a flapped link stays down"),
        registry.Param("duration", float, 20.0,
                       help="measurement window seconds"),
        registry.Param("crashes", int, 0,
                       help="bridge crash/restart cycles (tables wiped)"),
        registry.Param("migrations", int, 0,
                       help="host migrations between edge bridges"),
        registry.Param("scripted_failures", int, 0,
                       help="fig3-style deterministic cuts of the probe "
                            "stream's active path, replayed on top of "
                            "the Poisson churn"),
        registry.Param("fps", float, 25.0,
                       help="probe stream rate in frames per second"),
        registry.Param("stp_scale", float, 0.1,
                       help="STP timer scale factor (1.0 = IEEE "
                            "default timers)"),
        registry.seeds_param(),
    ),
    run=churn,
    row_keys=("topology", "flap_rate", "down_time", "duration", "crashes",
              "migrations", "scripted_failures"),
    smoke={"duration": 2.0, "protocols": ["arppath"], "flap_rate": 0.5},
))
