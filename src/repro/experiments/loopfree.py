"""EXP-P2: loop freedom and no blocked links (paper abstract & §2.2).

Two claims in one experiment, run on deliberately loopy topologies:

* **Loop freedom** — a broadcast is delivered to every other host
  exactly once; no frame circulates. We count per-host deliveries of
  each logical broadcast (clone uid) and total link transmissions
  (bounded; a storm grows without bound — the plain learning switch
  demonstrates that failure mode).
* **No blocked links** — after an all-pairs workload, every physical
  link has carried traffic under ARP-Path, while STP's blocked links
  carried none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.experiments import registry
from repro.experiments.common import ProtocolSpec, build_and_warm, spec
from repro.frames.ethernet import ETHERTYPE_IPV4
from repro.metrics.load import fabric_load
from repro.metrics.report import format_table
from repro.netsim.tracer import DELIVERED
from repro.topology.library import grid, ring
from repro.traffic.matrix import TrafficMatrix


@dataclass
class LoopfreeRow:
    protocol: str
    topology: str
    broadcast_copies_per_bridge_max: float
    duplicate_deliveries: int
    storm: bool
    used_links: int
    total_links: int


@dataclass
class LoopfreeResult:
    rows: List[LoopfreeRow] = field(default_factory=list)

    def table(self) -> str:
        headers = ["protocol", "topology", "dup_deliveries", "storm",
                   "links_used", "links_total"]
        body = [[r.protocol, r.topology, r.duplicate_deliveries, r.storm,
                 r.used_links, r.total_links] for r in self.rows]
        return format_table(
            headers, body,
            title="EXP-P2 — loop freedom and link utilisation")

    def records(self) -> List[Dict[str, Any]]:
        return [{"protocol": r.protocol, "topology": r.topology,
                 "duplicate_deliveries": r.duplicate_deliveries,
                 "storm": r.storm, "links_used": r.used_links,
                 "links_total": r.total_links} for r in self.rows]


def _broadcast_phase(net) -> Dict[int, int]:
    """Phase 1: one broadcast (gratuitous ARP) from each host. Returns
    the per-uid duplicate broadcast deliveries over host links, counted
    by a tracer listener attached for this phase only.

    In a loop-free flood each host link carries a given logical
    broadcast at most once (host→bridge for the origin's own link,
    bridge→host elsewhere); any second delivery of the same uid on the
    same link means the frame looped back.
    """
    fabric = {link.name for link in net.fabric_links()}
    host_links = {link.name for link in net.links.values()
                  if link.name not in fabric}
    counts: Dict[tuple, int] = {}

    def on_record(rec) -> None:
        if (rec.kind == DELIVERED and rec.link in host_links
                and rec.is_broadcast):
            key = (rec.frame_uid, rec.link)
            counts[key] = counts.get(key, 0) + 1

    hosts = sorted(net.hosts)
    for index, name in enumerate(hosts):
        net.sim.schedule(index * 0.01, net.host(name).gratuitous_arp)
    tracer = net.sim.tracer
    tracer.add_listener(on_record)
    try:
        net.run(len(hosts) * 0.01 + 1.0)
    finally:
        tracer.remove_listener(on_record)
    duplicates: Dict[int, int] = {}
    for (uid, _link), count in counts.items():
        if count > 1:
            duplicates[uid] = duplicates.get(uid, 0) + count - 1
    return duplicates


def run_protocol(protocol: ProtocolSpec, topology_name: str = "grid",
                 seed: int = 0, storm_budget: int = 200_000) -> LoopfreeRow:
    """Broadcast probes + all-pairs unicast on a loopy topology."""
    builders: Dict[str, Callable] = {
        "grid": lambda sim, factory: grid(sim, factory, 3, 3,
                                          latency_jitter=5e-6, seed=seed),
        "ring": lambda sim, factory: ring(sim, factory, 6),
    }
    builder = builders[topology_name]
    net = build_and_warm(builder, protocol, seed=seed)
    net.sim.tracer.reset()
    duplicates_per_uid = _broadcast_phase(net)
    duplicates = sum(duplicates_per_uid.values())
    storm = net.sim.tracer.frames_sent > storm_budget

    # Phase 2: all-pairs unicast to exercise link utilisation. Only
    # data frames count — control traffic (BPDUs, LSPs) legitimately
    # crosses blocked links.
    if not storm:
        matrix = TrafficMatrix(net)
        matrix.all_pairs(packets=5, interval=2e-3, size=400)
        matrix.start()
        net.run(1.0)
    load = fabric_load(net, ethertype=ETHERTYPE_IPV4)

    return LoopfreeRow(
        protocol=protocol.name, topology=topology_name,
        broadcast_copies_per_bridge_max=max(duplicates_per_uid.values())
        if duplicates_per_uid else 0,
        duplicate_deliveries=duplicates, storm=storm,
        used_links=load.used_links, total_links=load.total_links)


def run(topologies: List[str] = ["grid", "ring"], seed: int = 0,
        protocols: Optional[List[ProtocolSpec]] = None) -> LoopfreeResult:
    chosen = protocols if protocols is not None else [
        spec("arppath"), spec("stp"), spec("spb")]
    result = LoopfreeResult()
    for protocol in chosen:
        for name in topologies:
            result.rows.append(run_protocol(protocol, topology_name=name,
                                            seed=seed))
    return result


def _loopfree_scenario(seeds: List[int], topologies: List[str],
                       protocols: List[str],
                       stp_scale: Optional[float]) -> LoopfreeResult:
    chosen = registry.protocol_specs(protocols, stp_scale=stp_scale)
    return registry.seeded(
        lambda seed: run(topologies=topologies, seed=seed,
                         protocols=chosen))(seeds)


registry.register(registry.Scenario(
    name="loopfree",
    title="EXP-P2: loop freedom and link utilisation",
    params=(
        registry.Param("topologies", str, ["grid", "ring"], nargs="+",
                       choices=("grid", "ring"),
                       help="loopy topologies to test"),
        registry.Param("protocols", str, ["arppath", "stp", "spb"],
                       nargs="+", choices=("arppath", "stp", "spb"),
                       help="protocols to compare"),
        registry.Param("stp_scale", float, None,
                       help="STP timer scale factor (omitted = IEEE "
                            "default timers)"),
        registry.seeds_param(),
    ),
    run=_loopfree_scenario,
    smoke={"topologies": ["ring"], "protocols": ["arppath"]},
))
