"""EXP-F3: Path Repair under successive link failures (paper §3.2, Fig. 3).

A video stream runs from host A to host B across the four demo bridges;
links *on the stream's active path* fail one after another — exactly the
demo's cable pulls. The active path is observed live (per protocol, from
the links' records), so each failure hits whatever path the protocol is
currently using.

For ARP-Path the PathFail/PathRequest/PathReply exchange restores the
path in well under one frame interval; for STP the stream stalls for the
reconvergence time (max-age expiry plus two forward delays — tens of
seconds at IEEE defaults, so the comparison runs STP at scaled timers
and reports the scale alongside).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments import registry
from repro.experiments.common import ProtocolSpec, build_and_warm
from repro.metrics.convergence import Recovery, recoveries_for_failures
from repro.metrics.paths import PathObserver
from repro.topology.library import DemoParams, netfpga_demo
from repro.traffic.video import stream_between


@dataclass
class FailureOutcome:
    """One injected failure and how the stream fared."""

    link: Optional[str]
    fail_time: float
    recovery: Optional[Recovery]

    @property
    def outage(self) -> Optional[float]:
        return self.recovery.outage if self.recovery else None

    @property
    def chunks_lost(self) -> Optional[int]:
        return self.recovery.packets_lost if self.recovery else None


@dataclass
class ProtocolRepair:
    """One protocol's behaviour across the failure script."""

    protocol: str
    outcomes: List[FailureOutcome]
    chunks_sent: int
    chunks_received: int
    duplicates: int
    bridge_repair_times: List[float] = field(default_factory=list)

    @property
    def delivery_rate(self) -> float:
        return self.chunks_received / self.chunks_sent if self.chunks_sent \
            else 0.0


def run_protocol(protocol: ProtocolSpec, failures: int = 2,
                 params: DemoParams = DemoParams(), fps: float = 25.0,
                 failure_spacing: float = 2.0, seed: int = 0,
                 settle: float = 2.0) -> ProtocolRepair:
    """Stream A→B and successively fail the path's first fabric link.

    At each failure instant the stream's current bridge path is the
    one :class:`PathObserver` rebuilt for the last delivered chunk, and
    the first still-up bridge-to-bridge link on it is cut — the
    simulated equivalent of pulling the cable the video is flowing
    through.
    """
    net = build_and_warm(netfpga_demo, protocol, seed=seed, params=params)
    observer = PathObserver(net, "B")
    source, sink = stream_between(net.host("A"), net.host("B"), fps=fps)
    source.start()
    net.run(settle)  # stream establishes its path

    failed: List[Optional[str]] = []
    fail_times: List[float] = []

    def cut_active_path() -> None:
        fail_times.append(net.sim.now)
        bridges = observer.last_bridge_path()
        if not bridges:
            failed.append(None)
            return
        path = ("A",) + bridges + ("B",)
        for a, b in zip(path, path[1:]):
            if a in net.hosts or b in net.hosts:
                continue
            link = net.link_between(a, b)
            if link.up:
                link.take_down()
                failed.append(link.name)
                return
        failed.append(None)

    start = net.sim.now + 1.0
    for index in range(failures):
        net.sim.at(start + index * failure_spacing, cut_active_path)
    horizon = start + failures * failure_spacing + 2.0
    net.run(horizon - net.sim.now)
    source.stop()
    net.run(1.0)

    recoveries = recoveries_for_failures(sink.arrivals, fail_times,
                                         send_interval=1.0 / fps)
    outcomes = [FailureOutcome(link=link, fail_time=when, recovery=rec)
                for link, when, rec in zip(failed, fail_times, recoveries)]
    repair_times: List[float] = []
    for bridge in net.bridges.values():
        repair_times.extend(bridge.repair_events())
    return ProtocolRepair(protocol=protocol.name, outcomes=outcomes,
                          chunks_sent=source.sent,
                          chunks_received=sink.received,
                          duplicates=sink.duplicates,
                          bridge_repair_times=repair_times)


def fig3(failures: int, fps: float, failure_spacing: float,
         stp_scale: float, protocols: List[str],
         seeds: List[int]) -> List[Dict[str, Any]]:
    """The Figure 3 comparison, one record per failure per protocol per
    seed.

    STP runs with scaled timers (default 10x faster) so one run stays
    short; its outages scale linearly with the factor (README.md,
    "Bridge families": ``stp_scale`` compresses timers).
    """
    chosen = registry.protocol_specs(protocols, stp_scale=stp_scale)
    records = []
    for seed in seeds:
        for protocol in chosen:
            # STP reconvergence needs max_age + 2*forward_delay between
            # failures (plus margin) so outages don't overlap.
            spacing = failure_spacing
            if protocol.name.startswith("stp"):
                spacing = max(failure_spacing, 60.0 * stp_scale)
            row = run_protocol(protocol, failures=failures, fps=fps,
                               failure_spacing=spacing, seed=seed)
            for index, outcome in enumerate(row.outcomes, start=1):
                records.append({"protocol": row.protocol,
                                "failure_index": index,
                                "link": outcome.link,
                                "outage": outcome.outage,
                                "chunks_lost": outcome.chunks_lost,
                                "delivery_rate": row.delivery_rate,
                                "duplicates": row.duplicates})
    return records


registry.register(registry.Scenario(
    name="fig3",
    title="Fig. 3: path repair under successive failures",
    params=(
        registry.Param("failures", int, 2, help="successive link failures"),
        registry.Param("fps", float, 25.0,
                       help="video stream rate in frames per second"),
        registry.Param("failure_spacing", float, 2.0,
                       help="seconds between failures (STP runs use "
                            "max(this, reconvergence time))"),
        registry.Param("stp_scale", float, 0.1,
                       help="STP timer scale factor (1.0 = IEEE "
                            "default timers)"),
        registry.protocols_param(["arppath", "stp"], loop_safe_only=True),
        registry.seeds_param(),
    ),
    run=fig3,
    row_keys=("failure_index",),
    smoke={"failures": 1, "protocols": ["arppath"]},
))
