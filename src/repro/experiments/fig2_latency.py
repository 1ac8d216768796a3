"""EXP-F2: ARP-Path vs STP latency on the NetFPGA demo topology.

Reproduces the demo's main result (paper §3.1, Figure 2): the same
4-bridge wiring runs once with ARP-Path bridges and once with 802.1D
STP bridges; ping trains between hosts A and B measure the RTT each
protocol's path choice yields. ARP-Path races the flooded ARP Request
over every physical path and keeps the fastest; STP forwards along the
tree, which follows 802.1D costs (bandwidth only) and happily picks the
high-latency cross cable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments import registry
from repro.experiments.common import ProtocolSpec, build_and_warm
from repro.metrics.paths import PathObserver, min_latency_path
from repro.metrics.report import format_table
from repro.metrics.stats import Summary, mean, summarize
from repro.topology.library import DemoParams, netfpga_demo
from repro.traffic.ping import PingSeries


@dataclass
class ProtocolLatency:
    """One protocol's measured latency on the demo wiring."""

    protocol: str
    rtt: Summary
    losses: int
    bridge_path: Optional[Tuple[str, ...]]
    oracle_latency: float

    @property
    def path_str(self) -> str:
        if not self.bridge_path:
            return "-"
        return "->".join(self.bridge_path)


@dataclass
class Fig2Result:
    """All protocols' results plus the latency oracle."""

    rows: List[ProtocolLatency] = field(default_factory=list)

    def table(self) -> str:
        headers = ["protocol", "path (bridges)", "rtt_mean_us",
                   "rtt_p95_us", "losses", "one_way_oracle_us"]
        body = [[row.protocol, row.path_str, row.rtt.mean * 1e6,
                 row.rtt.p95 * 1e6, row.losses, row.oracle_latency * 1e6]
                for row in self.rows]
        return format_table(headers, body,
                            title="Fig.2 — ARP-Path vs STP latency (A<->B)")

    def speedup(self) -> Optional[float]:
        """STP mean RTT / ARP-Path mean RTT (the headline factor).

        Multi-seed runs hold one row per protocol per seed; the factor
        averages each protocol's mean RTT over its rows.
        """
        by_name: Dict[str, List[float]] = {}
        for row in self.rows:
            by_name.setdefault(row.protocol.split("(")[0],
                               []).append(row.rtt.mean)
        if "arppath" not in by_name or "stp" not in by_name:
            return None
        return mean(by_name["stp"]) / mean(by_name["arppath"])

    def records(self) -> List[Dict[str, Any]]:
        """Machine-readable rows (seconds, raw counts)."""
        return [{"protocol": row.protocol, "path": row.path_str,
                 "rtt_mean": row.rtt.mean, "rtt_p95": row.rtt.p95,
                 "losses": row.losses,
                 "oracle_latency": row.oracle_latency}
                for row in self.rows]


def run_protocol(protocol: ProtocolSpec, params: DemoParams = DemoParams(),
                 probes: int = 20, seed: int = 0) -> ProtocolLatency:
    """Measure one protocol on the demo topology."""
    net = build_and_warm(netfpga_demo, protocol, seed=seed, trace_hops=True,
                         params=params)
    observer = PathObserver(net, "B")
    series = PingSeries(net.host("A"), net.host("B").ip, count=probes,
                        interval=0.05)
    series.start()
    net.run(probes * 0.05 + 2.0)
    series.finalize()
    oracle = min_latency_path(net, "A", "B")
    bridge_path = observer.last_bridge_path()
    rtts = series.rtts
    if not rtts:
        raise RuntimeError(
            f"{protocol.name}: no probe answered — warmup too short?")
    return ProtocolLatency(protocol=protocol.name, rtt=summarize(rtts),
                           losses=series.losses, bridge_path=bridge_path,
                           oracle_latency=oracle.latency)


@dataclass
class PingResult:
    """The interactive ping check: one block per seed."""

    rows: List[ProtocolLatency] = field(default_factory=list)

    def table(self) -> str:
        blocks = []
        for row in self.rows:
            blocks.append(
                f"protocol: {row.protocol}\n"
                f"path:     A -> {row.path_str} -> B\n"
                f"rtt:      mean {row.rtt.mean * 1e6:.1f}us  "
                f"p95 {row.rtt.p95 * 1e6:.1f}us  losses {row.losses}")
        return "\n\n".join(blocks)

    def records(self) -> List[Dict[str, Any]]:
        return [{"protocol": row.protocol, "path": row.path_str,
                 "rtt_mean": row.rtt.mean, "rtt_p95": row.rtt.p95,
                 "losses": row.losses} for row in self.rows]


def fig2(probes: int, cross_latency_us: float, protocols: List[str],
         stp_scale: float, seeds: List[int]) -> Fig2Result:
    """The Figure 2 comparison, one row per protocol per seed."""
    chosen = registry.protocol_specs(protocols, stp_scale=stp_scale)
    params = DemoParams(cross_latency=cross_latency_us * 1e-6)
    return Fig2Result(rows=[
        run_protocol(protocol, params=params, probes=probes, seed=seed)
        for seed in seeds for protocol in chosen])


def _fig2_render(result: Fig2Result) -> str:
    text = result.table()
    speedup = result.speedup()
    if speedup is not None:
        text += f"\n\nARP-Path speedup over STP: {speedup:.1f}x"
    return text


def ping(protocol: str, count: int, seeds: List[int]) -> PingResult:
    """One ping train A->B per seed (STP at scaled timers)."""
    chosen, = registry.protocol_specs([protocol], stp_scale=0.1)
    return PingResult(rows=[run_protocol(chosen, probes=count, seed=seed)
                            for seed in seeds])


registry.register(registry.Scenario(
    name="fig2",
    title="Fig. 2: ARP-Path vs STP vs SPB latency",
    params=(
        registry.Param("probes", int, 20, help="ping probes per protocol"),
        registry.Param("cross_latency_us", float, 500.0,
                       help="demo cross-cable latency in microseconds"),
        registry.protocols_param(["arppath", "stp", "spb"],
                                 loop_safe_only=True),
        registry.Param("stp_scale", float, 0.1,
                       help="STP timer scale factor (1.0 = IEEE "
                            "default timers)"),
        registry.seeds_param(),
    ),
    run=fig2,
    render=_fig2_render,
    smoke={"probes": 2, "protocols": ["arppath"]},
))

registry.register(registry.Scenario(
    name="ping",
    title="interactive check: ping A<->B on the demo topology",
    # No "learning" choice: a plain learning switch melts down on the
    # demo topology's loops (that failure mode is demonstrated in the
    # loop-freedom bench instead).
    params=(
        registry.protocols_param("arppath", loop_safe_only=True,
                                 name="protocol", nargs=None, sweep=True),
        registry.Param("count", int, 5, help="number of probes"),
        registry.seeds_param(),
    ),
    run=ping,
    smoke={"count": 2},
))
