"""Path measurement: oracles, observed paths and stretch.

The paper's headline property is *minimum latency path selection*: the
ARP race should find the same path Dijkstra would, given perfect global
knowledge. This module provides that oracle (over the real topology)
and extracts observed paths from frame hop traces so the two can be
compared — the EXP-P1 stretch experiment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netsim.errors import TopologyError
from repro.topology.builder import Network


@dataclass(frozen=True)
class OraclePath:
    """The true minimum-latency path between two hosts."""

    nodes: Tuple[str, ...]
    latency: float

    @property
    def bridge_hops(self) -> int:
        """Number of bridges traversed (nodes minus the two hosts)."""
        return max(len(self.nodes) - 2, 0)


def min_latency_path(net: Network, src_host: str,
                     dst_host: str) -> OraclePath:
    """Dijkstra over the live topology with latency weights.

    Down links and the controller's out-of-band star are skipped.
    Neighbours are relaxed in link registration order and equal
    distances pop first-pushed first, from an integer ``0`` at the
    source, so ``latency`` is bit-equal to the test oracle over
    :func:`repro.testing.graph_of`. Raises :class:`TopologyError` when
    either host is unknown or cut off from the other.
    """
    adj: Dict[str, Dict[str, float]] = {}
    for name_a, name_b, wire in net.edges():
        if (wire.up and name_a not in net.controllers
                and name_b not in net.controllers):
            adj.setdefault(name_a, {})[name_b] = wire.latency
            adj.setdefault(name_b, {})[name_a] = wire.latency
    dist: Dict[str, float] = {}
    if src_host in adj and dst_host in adj:
        seen = {src_host: 0}
        parent: Dict[str, str] = {}
        pushes = count()
        heap = [(0, next(pushes), src_host)]
        while heap:
            d, _tie, node = heapq.heappop(heap)
            if node in dist:
                continue
            dist[node] = d
            if node == dst_host:
                break
            for peer, latency in adj[node].items():
                nd = d + latency
                if peer not in dist and (peer not in seen
                                         or nd < seen[peer]):
                    seen[peer] = nd
                    parent[peer] = node
                    heapq.heappush(heap, (nd, next(pushes), peer))
    if dst_host not in dist:
        raise TopologyError(
            f"no live path between hosts {src_host!r} and {dst_host!r}")
    nodes = [dst_host]
    while nodes[-1] != src_host:
        nodes.append(parent[nodes[-1]])
    return OraclePath(nodes=tuple(reversed(nodes)), latency=dist[dst_host])


def path_latency(net: Network, nodes: Sequence[str]) -> float:
    """Sum of link latencies along a node sequence."""
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        total += net.link_between(a, b).latency
    return total


def stretch(observed_latency: float, oracle_latency: float) -> float:
    """Observed / optimal latency; 1.0 means the race found the optimum."""
    if oracle_latency <= 0:
        raise ValueError("oracle latency must be positive")
    return observed_latency / oracle_latency


class PathObserver:
    """Captures the forwarding path of unicast traffic between hosts.

    Registers an IP listener on the destination host; each received
    packet's Ethernet-level hop trace is recovered from the delivering
    frame. Because the host stack strips frames, we instead snoop via
    the host's ``ip_listeners`` and inspect the last delivered frame's
    trace, which nodes record when ``trace_hops`` is on.
    """

    def __init__(self, net: Network, dst_host: str):
        if not net.sim.trace_hops:
            raise ValueError("PathObserver needs Simulator(trace_hops=True)")
        self.net = net
        self.dst = net.host(dst_host)
        self.paths: List[Tuple[str, ...]] = []
        self._install()

    def _install(self) -> None:
        original_deliver = self.dst.deliver

        def capturing_deliver(port, frame):
            if frame.is_unicast and frame.dst == self.dst.mac:
                self.paths.append(tuple(frame.path_nodes()))
            original_deliver(port, frame)

        self.dst.deliver = capturing_deliver  # type: ignore[method-assign]

    def last_bridge_path(self) -> Optional[Tuple[str, ...]]:
        """The bridges the most recent unicast frame traversed."""
        if not self.paths:
            return None
        return tuple(node for node in self.paths[-1]
                     if node in self.net.bridges)
