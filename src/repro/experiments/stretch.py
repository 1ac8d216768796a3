"""EXP-P1: minimum-latency path selection (paper §2.2, first bullet).

The claim: "The selected path is the minimum latency path as found by
the ARP Request message." We verify it against a Dijkstra oracle on
random topologies with heterogeneous link latencies, and measure the
same for STP (whose tree is built from bandwidth costs, blind to
latency). Stretch = chosen-path latency / optimal latency; 1.0 is
perfect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments import registry
from repro.experiments.common import ProtocolSpec, build_and_warm
from repro.metrics.paths import (PathObserver, min_latency_path,
                                 path_latency)
from repro.metrics.stats import Summary, summarize
from repro.topology.library import random_graph
from repro.traffic.ping import PingSeries


@dataclass
class StretchSample:
    """One host pair's path quality under one protocol."""

    src: str
    dst: str
    oracle_latency: float
    observed_latency: Optional[float]
    stretch: Optional[float]


@dataclass
class ProtocolStretch:
    protocol: str
    topology_seed: int
    samples: List[StretchSample] = field(default_factory=list)

    @property
    def stretches(self) -> List[float]:
        return [s.stretch for s in self.samples if s.stretch is not None]

    @property
    def optimal_fraction(self) -> float:
        """Fraction of pairs routed at stretch == 1 (within 1%)."""
        values = self.stretches
        if not values:
            return 0.0
        return sum(1 for v in values if v <= 1.01) / len(values)

    def summary(self) -> Optional[Summary]:
        values = self.stretches
        return summarize(values) if values else None


def _record(row: ProtocolStretch) -> Dict[str, Any]:
    stats = row.summary()
    return {"protocol": row.protocol,
            "seed": row.topology_seed,
            "pairs": stats.count if stats else 0,
            "stretch_mean": stats.mean if stats else None,
            "stretch_p95": stats.p95 if stats else None,
            "stretch_max": stats.max if stats else None,
            "optimal_frac": row.optimal_fraction if stats else None}


def measure_pair(net, src: str, dst: str, probes: int = 3
                 ) -> StretchSample:
    """Establish a path with pings, then compare to the oracle."""
    observer = PathObserver(net, dst)
    series = PingSeries(net.host(src), net.host(dst).ip, count=probes,
                        interval=0.05)
    series.start()
    net.run(probes * 0.05 + 1.5)
    series.finalize()
    oracle = min_latency_path(net, src, dst)
    bridges = observer.last_bridge_path()
    if not bridges or not series.rtts:
        return StretchSample(src=src, dst=dst,
                             oracle_latency=oracle.latency,
                             observed_latency=None, stretch=None)
    observed = path_latency(net, (src,) + bridges + (dst,))
    return StretchSample(src=src, dst=dst, oracle_latency=oracle.latency,
                         observed_latency=observed,
                         stretch=observed / oracle.latency)


def run_protocol(protocol: ProtocolSpec, n_bridges: int = 10,
                 hosts: int = 4, seed: int = 0,
                 extra_edge_prob: float = 0.35) -> ProtocolStretch:
    def topo(sim, factory):
        return random_graph(sim, factory, n=n_bridges,
                            extra_edge_prob=extra_edge_prob, seed=seed,
                            hosts=hosts)

    net = build_and_warm(topo, protocol, seed=seed)
    row = ProtocolStretch(protocol=protocol.name, topology_seed=seed)
    names = sorted(net.hosts)
    for src, dst in itertools.permutations(names, 2):
        row.samples.append(measure_pair(net, src, dst))
    return row


def stretch(bridges: int, hosts: int, protocols: List[str],
            stp_scale: Optional[float],
            seeds: List[int]) -> List[Dict[str, Any]]:
    """Path stretch per protocol, one record per protocol per seed
    (protocol-major)."""
    chosen = registry.protocol_specs(protocols, stp_scale=stp_scale)
    return [_record(run_protocol(protocol, n_bridges=bridges, hosts=hosts,
                                 seed=seed))
            for protocol in chosen for seed in seeds]


registry.register(registry.Scenario(
    name="stretch",
    title="EXP-P1: path stretch vs latency oracle",
    params=(
        registry.Param("bridges", int, 10, help="bridges per random graph"),
        registry.Param("hosts", int, 4, help="hosts per random graph"),
        registry.Param("protocols", str, ["arppath", "stp"],
                       nargs="+", choices=("arppath", "stp", "spb"),
                       help="protocols to compare"),
        registry.Param("stp_scale", float, None,
                       help="STP timer scale factor (omitted = IEEE "
                            "default timers)"),
        registry.seeds_param([0, 1, 2]),
    ),
    run=stretch,
    smoke={"bridges": 5, "hosts": 2, "seeds": [0],
           "protocols": ["arppath"]},
))
