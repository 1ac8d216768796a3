"""EXP-A2: load distribution and path diversity (paper §2.2).

Many flows cross a leaf/spine fabric. ARP-Path assigns each
source-destination pair whichever path its own ARP race won — under
concurrent load the races resolve differently per pair, spreading flows
over the fabric. STP funnels everything through the single spanning
tree. We measure bytes per fabric link: the coefficient of variation
and max/mean quantify the spread, and the used-link count shows the
blocked-link effect directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments import registry
from repro.experiments.common import ProtocolSpec, build_and_warm
from repro.frames.ethernet import ETHERTYPE_IPV4
from repro.metrics.load import LoadReport, fabric_load
from repro.metrics.report import format_table
from repro.topology.library import fat_tree
from repro.traffic.matrix import TrafficMatrix, all_pairs_arp_warmup


@dataclass
class LoadRow:
    protocol: str
    flows: int
    delivery_rate: float
    report: LoadReport


@dataclass
class LoadResult:
    rows: List[LoadRow] = field(default_factory=list)

    def table(self) -> str:
        headers = ["protocol", "flows", "delivered", "links_used",
                   "links_total", "load_cv", "max/mean"]
        body = [[r.protocol, r.flows, f"{r.delivery_rate:.3f}",
                 r.report.used_links, r.report.total_links, r.report.cv,
                 r.report.max_over_mean] for r in self.rows]
        return format_table(
            headers, body,
            title="EXP-A2 — load distribution over a leaf/spine fabric")

    def records(self) -> List[Dict[str, Any]]:
        return [{"protocol": r.protocol, "flows": r.flows,
                 "delivery_rate": r.delivery_rate,
                 "links_used": r.report.used_links,
                 "links_total": r.report.total_links,
                 "load_cv": r.report.cv,
                 "max_over_mean": r.report.max_over_mean}
                for r in self.rows]


def run_protocol(protocol: ProtocolSpec, pods: int = 4,
                 hosts_per_edge: int = 2, packets: int = 50,
                 interval: float = 5e-4, size: int = 1200,
                 seed: int = 0, resolve_under_load: bool = True) -> LoadRow:
    """Measure per-link load for one protocol.

    With *resolve_under_load* (the realistic case, and the default)
    flows start cold: their ARP races run while other flows are already
    loading the fabric, so serialization queues steer each pair's race
    to whichever spine is least busy — the mechanism behind the paper's
    "load distribution" claim. With it off, paths are established on an
    idle network first (pure topology-driven selection).
    """
    def topo(sim, factory):
        return fat_tree(sim, factory, pods=pods,
                        hosts_per_edge=hosts_per_edge, seed=seed)

    net = build_and_warm(topo, protocol, seed=seed)
    if not resolve_under_load:
        all_pairs_arp_warmup(net, spacing=5e-3)
    net.sim.tracer.reset()       # fabric_load reads bytes from here on

    matrix = TrafficMatrix(net)
    matrix.all_pairs(packets=packets, interval=interval, size=size)
    matrix.start(stagger=2e-5)
    net.run(packets * interval + 2.0)

    return LoadRow(protocol=protocol.name, flows=len(matrix.flows),
                   delivery_rate=matrix.delivery_rate,
                   report=fabric_load(net, ethertype=ETHERTYPE_IPV4))


def loadbalance(pods: int, hosts_per_edge: int, packets: int,
                protocols: List[str], stp_scale: Optional[float],
                seeds: List[int]) -> LoadResult:
    """Per-link load for each protocol, one row per protocol per seed."""
    chosen = registry.protocol_specs(protocols, stp_scale=stp_scale)
    return LoadResult(rows=[
        run_protocol(protocol, pods=pods, hosts_per_edge=hosts_per_edge,
                     packets=packets, seed=seed)
        for seed in seeds for protocol in chosen])


registry.register(registry.Scenario(
    name="loadbalance",
    title="EXP-A2: load distribution over a fabric",
    params=(
        registry.Param("pods", int, 4,
                       help="edge (leaf) switches in the two-tier "
                            "fabric"),
        registry.Param("hosts_per_edge", int, 2,
                       help="hosts per edge switch"),
        registry.Param("packets", int, 50, help="packets per flow"),
        registry.protocols_param(["arppath", "stp", "spb"],
                                 loop_safe_only=True),
        registry.Param("stp_scale", float, None,
                       help="STP timer scale factor (omitted = IEEE "
                            "default timers)"),
        registry.seeds_param(),
    ),
    run=loadbalance,
    smoke={"packets": 5, "protocols": ["arppath"]},
))
