"""EXP-S1 (supporting): bridge state vs network size.

The paper's scalability discussion (§2.2) argues ARP-Path keeps bridges
simple: state is one table entry per *active* conversation endpoint,
learnt on demand, against the link-state alternative that must store
the whole topology plus every advertised host everywhere.

This experiment measures state directly: peak locked-table occupancy
for ARP-Path vs LSDB size (bridges + advertised hosts) for SPB, as the
number of hosts grows on a fixed fabric, under (a) all-pairs traffic
and (b) a sparse traffic matrix — showing ARP-Path state scales with
*communication*, not with network size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments import registry
from repro.experiments.common import ProtocolSpec, build_and_warm
from repro.metrics.report import format_table
from repro.topology.library import populate_access_ports, ring
from repro.traffic.matrix import TrafficMatrix


@dataclass
class OccupancyRow:
    protocol: str
    hosts: int
    active_pairs: int
    peak_entries_per_bridge: int
    mean_entries_per_bridge: float
    #: Simulated endpoints (hosts + population members); equals
    #: ``hosts`` unless the run used ``endpoints_per_port`` > 1.
    endpoints: int = 0

    def __post_init__(self):
        if not self.endpoints:
            self.endpoints = self.hosts


@dataclass
class OccupancyResult:
    rows: List[OccupancyRow] = field(default_factory=list)

    def table(self) -> str:
        headers = ["protocol", "hosts", "talking_pairs",
                   "peak_state/bridge", "mean_state/bridge"]
        body = [[r.protocol, r.hosts, r.active_pairs,
                 r.peak_entries_per_bridge,
                 f"{r.mean_entries_per_bridge:.1f}"] for r in self.rows]
        return format_table(
            headers, body,
            title="EXP-S1 — per-bridge state vs hosts and traffic")

    def records(self) -> List[Dict[str, Any]]:
        return [{"protocol": r.protocol, "hosts": r.hosts,
                 "endpoints": r.endpoints,
                 "talking_pairs": r.active_pairs,
                 "peak_state": r.peak_entries_per_bridge,
                 "mean_state": r.mean_entries_per_bridge}
                for r in self.rows]


def run_case(protocol: ProtocolSpec, hosts_per_bridge: int,
             pairs: Optional[int], n_bridges: int = 4,
             seed: int = 0, endpoints_per_port: int = 1) -> OccupancyRow:
    """One protocol/host-count/traffic-density cell.

    *pairs* = None means all-pairs; otherwise that many random ordered
    pairs talk. *endpoints_per_port* > 1 puts a flyweight population
    behind every access port and adds a heavy-tailed flow set over the
    population endpoints, so the occupancy contrast is measured at
    population scale (all draws from a ``seed``-seeded RNG at
    generation time — the rows stay a pure function of the cell).
    """

    def topo(sim, factory):
        net = ring(sim, factory, n_bridges,
                   hosts_per_bridge=hosts_per_bridge)
        populate_access_ports(net, endpoints_per_port)
        return net

    net = build_and_warm(topo, protocol, seed=seed)
    matrix = TrafficMatrix(net)
    if pairs is None:
        flows = matrix.all_pairs(hosts=sorted(net.hosts), packets=3,
                                 interval=2e-3, size=200)
    else:
        flows = matrix.random_pairs(pairs, hosts=sorted(net.hosts),
                                    packets=3, interval=2e-3, size=200)
    if endpoints_per_port > 1:
        flows += matrix.elephant_mice(
            count=pairs if pairs is not None else len(net.hosts),
            rng=random.Random(seed), endpoints=sorted(net.populations))
    matrix.start(stagger=1e-3)
    net.run(1.0)

    sizes = [b.state_entries() for b in net.bridges.values()]
    return OccupancyRow(
        protocol=protocol.name, hosts=len(net.hosts),
        active_pairs=len(flows),
        peak_entries_per_bridge=max(sizes),
        mean_entries_per_bridge=sum(sizes) / len(sizes),
        endpoints=net.endpoint_count())


def occupancy(host_counts: List[int], sparse_pairs: int,
              endpoints_per_port: int, protocols: List[str],
              seeds: List[int]) -> OccupancyResult:
    """Sweep host density per family, dense and sparse traffic."""
    result = OccupancyResult()
    for seed in seeds:
        for protocol in registry.protocol_specs(protocols):
            for hosts_per_bridge in host_counts:
                result.rows.append(run_case(
                    protocol, hosts_per_bridge, pairs=None, seed=seed,
                    endpoints_per_port=endpoints_per_port))
                total_hosts = hosts_per_bridge * 4
                if total_hosts * (total_hosts - 1) > sparse_pairs:
                    sparse = run_case(protocol, hosts_per_bridge,
                                      pairs=sparse_pairs, seed=seed,
                                      endpoints_per_port=endpoints_per_port)
                    sparse.protocol += " (sparse)"
                    result.rows.append(sparse)
    return result


registry.register(registry.Scenario(
    name="occupancy",
    title="EXP-S1: per-bridge state vs hosts and traffic",
    params=(
        registry.Param("host_counts", int, [1, 2, 4], nargs="+",
                       help="hosts per bridge, one case per value"),
        registry.Param("sparse_pairs", int, 4,
                       help="talking pairs in the sparse traffic case"),
        registry.Param("endpoints_per_port", int, 1,
                       help="simulated endpoints behind each access "
                            "port (1 = plain hosts; >1 swaps in "
                            "flyweight populations and adds the "
                            "heavy-tailed Zipf elephant/mice flow "
                            "phase)"),
        registry.protocols_param(["arppath", "spb"], loop_safe_only=True),
        registry.seeds_param(),
    ),
    run=occupancy,
    row_keys=("hosts", "talking_pairs"),
    smoke={"host_counts": [1]},
))
