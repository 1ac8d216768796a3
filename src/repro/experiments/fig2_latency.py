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

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments import registry
from repro.experiments.common import ProtocolSpec, build_and_warm
from repro.metrics.paths import PathObserver, min_latency_path
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


def _record(row: ProtocolLatency) -> Dict[str, Any]:
    """One row as a record (seconds, raw counts)."""
    return {"protocol": row.protocol, "path": row.path_str,
            "rtt_mean": row.rtt.mean, "rtt_p95": row.rtt.p95,
            "losses": row.losses, "oracle_latency": row.oracle_latency}


def speedup(records: List[Dict[str, Any]]) -> Optional[float]:
    """STP mean RTT / ARP-Path mean RTT (the headline factor).

    Multi-seed runs hold one record per protocol per seed; the factor
    averages each protocol's ``rtt_mean`` over its records.
    """
    by_name: Dict[str, List[float]] = {}
    for record in records:
        by_name.setdefault(record["protocol"].split("(")[0],
                           []).append(record["rtt_mean"])
    if "arppath" not in by_name or "stp" not in by_name:
        return None
    return mean(by_name["stp"]) / mean(by_name["arppath"])


def run_protocol(protocol: ProtocolSpec, params: DemoParams = DemoParams(),
                 probes: int = 20, seed: int = 0) -> ProtocolLatency:
    """Measure one protocol on the demo topology."""
    net = build_and_warm(netfpga_demo, protocol, seed=seed, params=params)
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


def fig2(probes: int, cross_latency_us: float, protocols: List[str],
         stp_scale: float, seeds: List[int]) -> List[Dict[str, Any]]:
    """The Figure 2 comparison, one record per protocol per seed."""
    chosen = registry.protocol_specs(protocols, stp_scale=stp_scale)
    params = DemoParams(cross_latency=cross_latency_us * 1e-6)
    return [_record(run_protocol(protocol, params=params, probes=probes,
                                 seed=seed))
            for seed in seeds for protocol in chosen]


def _headline(records: List[Dict[str, Any]]) -> Optional[str]:
    factor = speedup(records)
    return None if factor is None \
        else f"ARP-Path speedup over STP: {factor:.1f}x"


def ping(protocol: str, count: int,
         seeds: List[int]) -> List[Dict[str, Any]]:
    """One ping train A->B per seed (STP at scaled timers)."""
    chosen, = registry.protocol_specs([protocol], stp_scale=0.1)
    records = []
    for seed in seeds:
        record = _record(run_protocol(chosen, probes=count, seed=seed))
        del record["oracle_latency"]
        records.append(record)
    return records


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
    headline=_headline,
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
