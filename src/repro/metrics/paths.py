"""Path measurement: oracles, observed paths and stretch.

The paper's headline property is *minimum latency path selection*: the
ARP race should find the same path Dijkstra would, given perfect global
knowledge. This module provides that oracle (over the real topology)
and observes the paths frames took, rebuilt from the links' records,
so the two can be compared — the EXP-P1 stretch experiment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.netsim.errors import TopologyError
from repro.netsim.tracer import DELIVERED, SENT, TraceRecord
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
    """The path each unicast frame addressed to one host travelled.

    One tracer listener: it reads the SENT and DELIVERED records of
    frames addressed to the host (each record carries its link
    direction) and touches no frame and no node. The lineage rule:

    * a SENT record of uid ``u`` from node X starts a copy, keyed by
      ``(uid, direction)``, whose path is the path along which X last
      received ``u``; if X never received ``u``, X built the frame and
      the path is ``()``;
    * a DELIVERED record pops that copy's path. At the host it is
      appended to :attr:`paths`; at any other node Y, Y's path for
      ``u`` becomes the path plus Y.

    X's path is read when the copy is sent, not when it is delivered:
    a node that forwards one copy and then drops a second one (an STP
    bridge receiving on a blocked port) must not hand the dropped
    copy's path to the copy it forwarded.

    Two limits. A node that receives a uid twice and sends the earlier
    copy after the later one arrived (a queued or buffered forward)
    gives it the later copy's path. A frame already in flight when the
    observer attaches is observed from its next hop on.

    Nothing is forgotten: besides :attr:`paths`, the observer keeps each
    node's path for every uid it received, so its memory grows with the
    frames it observes.
    """

    def __init__(self, net: Network, dst_host: str):
        self.net = net
        self.dst = net.host(dst_host)
        self.paths: List[Tuple[str, ...]] = []
        #: (uid, direction) -> the path of that copy, while in flight.
        self._copies: Dict[Tuple[int, Any], Tuple[str, ...]] = {}
        #: (node, uid) -> the path along which the node last received uid.
        self._received: Dict[Tuple[Any, int], Tuple[str, ...]] = {}
        net.sim.tracer.add_listener(self._on_record)

    def _on_record(self, rec: TraceRecord) -> None:
        kind, _, _, uid, _, _, _, dst, direction = rec
        if dst != self.dst.mac:
            return
        if kind == SENT:
            self._copies[uid, direction] = self._received.get(
                (direction.from_port.node, uid), ())
        elif kind == DELIVERED:
            path = self._copies.pop((uid, direction), ())
            node = direction.to_port.node
            if node is self.dst:
                self.paths.append(path)
            else:
                self._received[node, uid] = path + (node.name,)

    def last_bridge_path(self) -> Optional[Tuple[str, ...]]:
        """The bridges the most recent unicast frame traversed."""
        if not self.paths:
            return None
        return tuple(node for node in self.paths[-1]
                     if node in self.net.bridges)
