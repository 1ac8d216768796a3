"""EXP-A1: ARP-Proxy broadcast suppression (paper §2.2 "Scalability").

The paper: "ARP broadcast traffic can be reduced dramatically by
implementing ARP Proxy function inside the switches" (citing
EtherProxy). We run an all-pairs ARP workload on a grid fabric with the
proxy off and on and count link-level ARP transmissions. With the proxy
on, only the first resolution of each target floods; later requests are
answered at the ingress bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.config import ArpPathConfig
from repro.experiments import registry
from repro.experiments.common import build_and_warm, spec
from repro.frames.ethernet import ETHERTYPE_ARP
from repro.netsim.tracer import SENT
from repro.topology.library import grid


@dataclass
class BroadcastRow:
    proxy: bool
    rounds: int
    hosts: int
    arp_frames_on_links: int
    proxy_answers: int
    resolution_failures: int


def suppression(records: List[Dict[str, Any]]) -> Optional[float]:
    """ARP link frames with the proxy off / on — the suppression factor.

    Multi-seed runs hold one off/on record pair per seed; the factor
    uses the ``arp_link_frames`` totals across all records of each kind.
    """
    off = sum(r["arp_link_frames"] for r in records if not r["proxy"])
    on = sum(r["arp_link_frames"] for r in records if r["proxy"])
    if all(r["proxy"] for r in records) or on == 0:
        return None
    return off / on


def run_case(proxy: bool, rows: int = 3, cols: int = 3, rounds: int = 3,
             seed: int = 0) -> BroadcastRow:
    """All-pairs ARP, repeated *rounds* times with expiring host caches.

    Host ARP caches are set shorter than the round spacing so every
    round re-resolves; bridge proxy caches are long so rounds 2+ hit the
    proxy.
    """
    config = ArpPathConfig(proxy_enabled=proxy, proxy_timeout=600.0)
    protocol = spec("arppath", arppath_config=config)
    round_spacing = 10.0

    def topo(sim, factory):
        net = grid(sim, factory, rows, cols, hosts_at_corners=True,
                   latency_jitter=2e-6, seed=seed)
        for host in net.hosts.values():
            host.arp_timeout = round_spacing / 2
        return net

    net = build_and_warm(topo, protocol, seed=seed)
    net.sim.tracer.reset()

    hosts = sorted(net.hosts)
    for round_index in range(rounds):
        base = round_index * round_spacing
        offset = 0.0
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                net.sim.schedule(base + offset, net.host(src).ping,
                                 net.host(dst).ip)
                offset += 0.02
    net.run(rounds * round_spacing + 2.0)

    answers = sum(b.protocol_counters().get("proxy_suppressed", 0)
                  for b in net.bridges.values())
    failures = sum(h.counters.resolution_failures
                   for h in net.hosts.values())
    return BroadcastRow(
        proxy=proxy, rounds=rounds, hosts=len(hosts),
        arp_frames_on_links=net.sim.tracer.count(SENT, ETHERTYPE_ARP),
        proxy_answers=answers, resolution_failures=failures)


def proxy(rows: int, cols: int, rounds: int,
          seeds: List[int]) -> List[Dict[str, Any]]:
    """Proxy off, then on, for each seed."""
    records = []
    for seed in seeds:
        for enabled in (False, True):
            r = run_case(enabled, rows=rows, cols=cols, rounds=rounds,
                         seed=seed)
            records.append({
                "proxy": r.proxy, "hosts": r.hosts, "rounds": r.rounds,
                "arp_link_frames": r.arp_frames_on_links,
                "proxy_answers": r.proxy_answers,
                "resolution_failures": r.resolution_failures})
    return records


def _headline(records: List[Dict[str, Any]]) -> Optional[str]:
    factor = suppression(records)
    return None if factor is None \
        else f"suppression factor: {factor:.2f}x"


registry.register(registry.Scenario(
    name="proxy",
    title="EXP-A1: ARP proxy broadcast suppression",
    params=(
        registry.Param("rows", int, 3, help="grid rows"),
        registry.Param("cols", int, 3, help="grid columns"),
        registry.Param("rounds", int, 3, help="all-pairs ARP rounds"),
        registry.seeds_param(),
    ),
    run=proxy,
    headline=_headline,
    smoke={"rows": 2, "cols": 2, "rounds": 1},
))
