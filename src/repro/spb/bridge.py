"""A shortest-path bridge: link-state control plane at layer two.

Implements the SPB/TRILL-style baseline: adjacency hellos, LSP flooding
with sequence numbers, Dijkstra SPF with symmetric (lowest-MAC)
tie-breaking, host attachment advertisement, and per-source shortest
path trees with reverse-path-forwarding checks for broadcast.

Everything ARP-Path gets for free — loop-free broadcast, unicast paths,
failure recovery — here requires explicit control machinery; the
broadcast/control overhead experiments quantify that difference.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.frames.ethernet import ETHERTYPE_LSP, EthernetFrame
from repro.frames.mac import MAC
from repro.netsim.engine import Simulator
from repro.netsim.node import Port
from repro.spb.lsp import (Adjacency, LinkStatePacket, SPB_MULTICAST,
                           SpbHello)
from repro.switching.base import (Bridge, BridgeFamily, Dataplane,
                                  FamilyOption, register_family)

DEFAULT_HELLO_INTERVAL = 1.0
DEFAULT_HELLO_HOLD = 3.5
DEFAULT_LSP_REFRESH = 10.0
DEFAULT_LSP_MAX_AGE = 60.0
DEFAULT_HOST_AGING = 300.0

#: The SPB pipeline: link-state frames (hellos + LSPs) are control.
SPB_DATAPLANE = Dataplane(control_ethertypes=(ETHERTYPE_LSP,))


@dataclass
class SpbCounters:
    hellos_sent: int = 0
    hellos_received: int = 0
    lsps_originated: int = 0
    lsps_flooded: int = 0
    lsps_received: int = 0
    lsps_stale: int = 0
    spf_runs: int = 0
    unknown_unicast_drops: int = 0
    unknown_source_drops: int = 0
    rpf_drops: int = 0


@dataclass
class _SpfResult:
    """Shortest-path tree from one root over the current LSDB."""

    dist: Dict[MAC, float]
    parent: Dict[MAC, Optional[MAC]]


class SpbBridge(Bridge):
    """A bridge running a link-state shortest-path control plane."""

    dataplane = SPB_DATAPLANE

    def __init__(self, sim: Simulator, name: str, mac: MAC,
                 hello_interval: float = DEFAULT_HELLO_INTERVAL,
                 hello_hold: float = DEFAULT_HELLO_HOLD,
                 lsp_refresh: float = DEFAULT_LSP_REFRESH,
                 lsp_max_age: float = DEFAULT_LSP_MAX_AGE,
                 host_aging: float = DEFAULT_HOST_AGING):
        super().__init__(sim, name, mac)
        self.hello_interval = hello_interval
        self.hello_hold = hello_hold
        self.lsp_refresh = lsp_refresh
        self.lsp_max_age = lsp_max_age
        self.host_aging = host_aging
        self.spb_counters = SpbCounters()
        #: Neighbour bridge MAC per port index, with hold deadline.
        self._neighbor: Dict[int, Tuple[MAC, float]] = {}
        #: Locally attached hosts: MAC -> (port, expiry).
        self._local_hosts: Dict[MAC, Tuple[Port, float]] = {}
        #: The link-state database: origin -> (LSP, received time).
        self._lsdb: Dict[MAC, Tuple[LinkStatePacket, float]] = {}
        self._own_seq = 0
        self._hello_seq = 0
        self._version = 0
        self._spf_cache: Dict[MAC, Tuple[int, _SpfResult]] = {}
        #: The two-way adjacency graph of LSDB version ``[0]``, shared by
        #: every root's SPF run at that version.
        self._graph: Tuple[int, Dict[MAC, List[Tuple[MAC, float]]]] = \
            (-1, {})
        self._hello_timer = None
        self._refresh_timer = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        super().start()
        self._send_hellos()
        self._originate_lsp()
        self._hello_timer = self.sim.schedule_periodic(
            self.hello_interval, self._on_hello_tick)
        self._refresh_timer = self.sim.schedule_periodic(
            self.lsp_refresh, self._originate_lsp)

    def stop(self) -> None:
        """Stop periodic processes."""
        if self._hello_timer is not None:
            self._hello_timer.stop()
            self._hello_timer = None
        if self._refresh_timer is not None:
            self._refresh_timer.stop()
            self._refresh_timer = None

    def reset_state(self) -> None:
        """Power-cycle wipe: adjacencies, attached hosts, the LSDB.

        ``_own_seq`` survives on purpose — a restarted router that
        remembers its sequence number re-floods an LSP its neighbours
        accept immediately, instead of being shadowed by its own stale
        LSP until max-age expiry.
        """
        self._neighbor.clear()
        self._local_hosts.clear()
        self._lsdb.clear()
        self._spf_cache.clear()
        self._bump_version()

    def _on_hello_tick(self) -> None:
        self._send_hellos()
        self._age_out()

    def _age_out(self) -> None:
        now = self.sim.now
        changed = False
        for index, (_mac, deadline) in list(self._neighbor.items()):
            if deadline <= now:
                del self._neighbor[index]
                changed = True
        for mac, (_port, deadline) in list(self._local_hosts.items()):
            if deadline <= now:
                del self._local_hosts[mac]
                changed = True
        for origin, (_lsp, received) in list(self._lsdb.items()):
            if origin != self.mac and received + self.lsp_max_age <= now:
                del self._lsdb[origin]
                self._bump_version()
        if changed:
            self._originate_lsp()

    def link_state_changed(self, port: Port, up: bool) -> None:
        if up:
            if self.started:
                self._send_hellos()
            return
        if port.index in self._neighbor:
            del self._neighbor[port.index]
            self._originate_lsp()
        stale = [mac for mac, (hport, _exp) in self._local_hosts.items()
                 if hport is port]
        if stale:
            for mac in stale:
                del self._local_hosts[mac]
            self._originate_lsp()

    # -- port classification ----------------------------------------------

    def is_bridge_port(self, port: Port) -> bool:
        entry = self._neighbor.get(port.index)
        return entry is not None and entry[1] > self.sim.now

    def is_host_port(self, port: Port) -> bool:
        return port.is_attached and not self.is_bridge_port(port)

    def neighbor_on(self, port: Port) -> Optional[MAC]:
        entry = self._neighbor.get(port.index)
        if entry is None or entry[1] <= self.sim.now:
            return None
        return entry[0]

    def _port_for_neighbor(self, neighbor: MAC) -> Optional[Port]:
        now = self.sim.now
        for index, (mac, deadline) in self._neighbor.items():
            if mac == neighbor and deadline > now:
                return self.ports[index]
        return None

    # -- control plane -------------------------------------------------------

    def _send_hellos(self) -> None:
        self._hello_seq += 1
        hello = SpbHello(origin=self.mac, seq=self._hello_seq)
        for port in self.ports:
            if not port.is_up:
                continue
            self.spb_counters.hellos_sent += 1
            self.counters.control_sent += 1
            port.send(EthernetFrame(dst=SPB_MULTICAST, src=self.mac,
                                    ethertype=ETHERTYPE_LSP, payload=hello))

    def _originate_lsp(self) -> None:
        """Advertise our adjacencies and attached hosts to the network."""
        now = self.sim.now
        adjacencies = tuple(sorted(
            (Adjacency(neighbor=mac) for _idx, (mac, deadline)
             in self._neighbor.items() if deadline > now),
            key=lambda adj: adj.neighbor.value))
        hosts = tuple(sorted(
            (mac for mac, (_port, deadline) in self._local_hosts.items()
             if deadline > now), key=lambda mac: mac.value))
        self._own_seq += 1
        lsp = LinkStatePacket(origin=self.mac, seq=self._own_seq,
                              adjacencies=adjacencies, hosts=hosts)
        self._lsdb[self.mac] = (lsp, now)
        self._bump_version()
        self.spb_counters.lsps_originated += 1
        self._flood_lsp(lsp, exclude=None)

    def _flood_lsp(self, lsp: LinkStatePacket,
                   exclude: Optional[Port]) -> None:
        for port in self.ports:
            if port is exclude or not port.is_up:
                continue
            if not self.is_bridge_port(port):
                continue
            self.spb_counters.lsps_flooded += 1
            self.counters.control_sent += 1
            port.send(EthernetFrame(dst=SPB_MULTICAST, src=self.mac,
                                    ethertype=ETHERTYPE_LSP, payload=lsp))

    def _handle_hello(self, port: Port, hello: SpbHello) -> None:
        self.spb_counters.hellos_received += 1
        known = self._neighbor.get(port.index)
        self._neighbor[port.index] = (hello.origin,
                                      self.sim.now + self.hello_hold)
        if known is None or known[0] != hello.origin:
            # New adjacency: advertise it and bring the peer up to date.
            self._originate_lsp()
            self._send_database(port)

    def _send_database(self, port: Port) -> None:
        """Unicast-style LSDB sync to a new neighbour (flood our copy)."""
        for origin, (lsp, _received) in self._lsdb.items():
            if origin == self.mac:
                continue  # our own LSP was just flooded by _originate_lsp
            self.spb_counters.lsps_flooded += 1
            self.counters.control_sent += 1
            port.send(EthernetFrame(dst=SPB_MULTICAST, src=self.mac,
                                    ethertype=ETHERTYPE_LSP, payload=lsp))

    def _handle_lsp(self, port: Port, lsp: LinkStatePacket) -> None:
        self.spb_counters.lsps_received += 1
        if lsp.origin == self.mac:
            return
        held = self._lsdb.get(lsp.origin)
        if held is not None and not lsp.newer_than(held[0]):
            self.spb_counters.lsps_stale += 1
            return
        self._lsdb[lsp.origin] = (lsp, self.sim.now)
        self._bump_version()
        self._flood_lsp(lsp, exclude=port)

    def _bump_version(self) -> None:
        self._version += 1

    # -- SPF ---------------------------------------------------------------

    def _bidirectional_edges(self) -> Dict[MAC, List[Tuple[MAC, float]]]:
        """The adjacency graph, keeping only two-way-confirmed links.

        Each bridge's list is sorted by neighbour MAC value, the order
        :meth:`_spf` relaxes edges in.
        """
        reported: Dict[MAC, Dict[MAC, float]] = {}
        for origin, (lsp, _received) in self._lsdb.items():
            reported[origin] = {adj.neighbor: adj.cost
                                for adj in lsp.adjacencies}
        graph: Dict[MAC, List[Tuple[MAC, float]]] = {}
        for origin, neighbors in reported.items():
            for neighbor, cost in neighbors.items():
                back = reported.get(neighbor, {})
                if origin not in back:
                    continue
                graph.setdefault(origin, []).append(
                    (neighbor, max(cost, back[origin])))
        for edges in graph.values():
            edges.sort(key=lambda edge: edge[0]._value)
        return graph

    def _spf(self, root: MAC) -> _SpfResult:
        """Dijkstra from *root* with deterministic lowest-MAC tie-breaks.

        Symmetric tie-breaking means every bridge computes the same tree
        for a given root — the property SPB relies on for congruent
        unicast/multicast paths (802.1aq's ECT tie-breaking).
        """
        cached = self._spf_cache.get(root)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        self.spb_counters.spf_runs += 1
        version, graph = self._graph
        if version != self._version:
            graph = self._bidirectional_edges()
            self._graph = (self._version, graph)
        dist: Dict[MAC, float] = {root: 0.0}
        parent: Dict[MAC, Optional[MAC]] = {root: None}
        # Heap entries: (distance, node MAC value, node) — the MAC value
        # makes pops deterministic; parents are chosen lowest-MAC-first.
        heap: List[Tuple[float, int, MAC]] = [(0.0, root.value, root)]
        done: Set[MAC] = set()
        while heap:
            d, _tie, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbor, cost in graph.get(node, ()):
                nd = d + cost
                old = dist.get(neighbor)
                better = old is None or nd < old
                same_but_lower = (old is not None and nd == old
                                  and parent[neighbor] is not None
                                  and node.value < parent[neighbor].value)
                if better or same_but_lower:
                    dist[neighbor] = nd
                    parent[neighbor] = node
                    heapq.heappush(heap, (nd, neighbor.value, neighbor))
        result = _SpfResult(dist=dist, parent=parent)
        self._spf_cache[root] = (self._version, result)
        return result

    def _first_hop(self, toward: MAC) -> Optional[MAC]:
        """The neighbour on our shortest path toward bridge *toward*."""
        parent = self._spf(self.mac).parent
        up = parent.get(toward)
        if up is None:              # unreachable, or ourselves
            return None
        mine = self.mac._value
        node = toward
        while up._value != mine:
            node = up
            up = parent[node]
            if up is None:
                return None
        return node

    def attachment_bridge(self, host: MAC) -> Optional[MAC]:
        """The bridge advertising *host*, per the LSDB."""
        local = self._local_hosts.get(host)
        if local is not None and local[1] > self.sim._now:
            return self.mac
        value = host._value
        for origin, (lsp, _received) in self._lsdb.items():
            if value in lsp.host_values:
                return origin
        return None

    # -- data plane ----------------------------------------------------------

    def on_control(self, port: Port, frame: EthernetFrame) -> None:
        payload = frame.payload
        if isinstance(payload, SpbHello):
            self._handle_hello(port, payload)
        elif isinstance(payload, LinkStatePacket):
            self._handle_lsp(port, payload)

    def admit_data(self, port: Port, frame: EthernetFrame) -> bool:
        if self.is_host_port(port):
            self._learn_local_host(frame.src, port)
        return True

    def _learn_local_host(self, mac: MAC, port: Port) -> None:
        if mac.is_multicast:
            return
        known = self._local_hosts.get(mac)
        self._local_hosts[mac] = (port, self.sim.now + self.host_aging)
        if known is None or known[0] is not port:
            self._originate_lsp()

    def on_unicast(self, port: Port, frame: EthernetFrame) -> None:
        local = self._local_hosts.get(frame.dst)
        if local is not None and local[1] > self.sim.now:
            if local[0] is port:
                self.filter_frame()
            else:
                self.forward(local[0], frame)
            return
        attachment = self.attachment_bridge(frame.dst)
        if attachment is None or attachment == self.mac:
            self.spb_counters.unknown_unicast_drops += 1
            return
        next_hop = self._first_hop(attachment)
        out_port = (self._port_for_neighbor(next_hop)
                    if next_hop is not None else None)
        if out_port is None or not out_port.is_up:
            self.spb_counters.unknown_unicast_drops += 1
            return
        self.forward(out_port, frame)

    def on_broadcast(self, port: Port, frame: EthernetFrame) -> None:
        """Forward along the per-source shortest path tree.

        The tree is rooted at the source host's attachment bridge; we
        accept the frame only from the RPF direction and forward it to
        neighbours whose tree parent is this bridge, plus host ports.
        """
        if self.is_host_port(port):
            root = self.mac
        else:
            root = self.attachment_bridge(frame.src)
            if root is None:
                self.spb_counters.unknown_source_drops += 1
                return
            expected_hop = self._first_hop(root)
            ingress_neighbor = self.neighbor_on(port)
            if expected_hop is None or ingress_neighbor != expected_hop:
                self.spb_counters.rpf_drops += 1
                return
        spf = self._spf(root)
        copies = 0
        now = self.sim.now
        for out_port in self.ports:
            if out_port is port or not out_port.is_up:
                continue
            neighbor = self.neighbor_on(out_port)
            if neighbor is None:
                copies += 1
                out_port.send(frame)  # host port: always deliver
                continue
            if spf.parent.get(neighbor) == self.mac:
                copies += 1
                out_port.send(frame)
        self.counters.flooded_frames += 1
        self.counters.flooded_copies += copies

    # -- introspection -----------------------------------------------------

    def lsdb_summary(self) -> Dict[str, dict]:
        """Origin → {seq, adjacency count, host count} (diagnostics)."""
        return {str(origin): {"seq": lsp.seq,
                              "adjacencies": len(lsp.adjacencies),
                              "hosts": len(lsp.hosts)}
                for origin, (lsp, _received) in self._lsdb.items()}

    def state_entries(self, now: Optional[float] = None) -> int:
        """LSDB entries plus advertised hosts — the state a link-state
        control plane must replicate on every bridge."""
        total = 0
        for _origin, (lsp, _received) in self._lsdb.items():
            total += 1 + len(lsp.hosts)
        return total

    def protocol_counters(self) -> Dict[str, int]:
        return {
            "lsps_originated": self.spb_counters.lsps_originated,
            "lsps_flooded": self.spb_counters.lsps_flooded,
            "spf_runs": self.spb_counters.spf_runs,
            "rpf_drops": self.spb_counters.rpf_drops,
        }

    def __repr__(self) -> str:
        return (f"<SpbBridge {self.name} lsdb={len(self._lsdb)} "
                f"hosts={len(self._local_hosts)}>")


def _spb_factory(**kwargs):
    """A bridge factory producing link-state shortest-path bridges."""

    def build(sim: Simulator, name: str, mac: MAC) -> SpbBridge:
        return SpbBridge(sim, name, mac, **kwargs)

    return build


register_family(BridgeFamily(
    name="spb",
    title="SPB/TRILL-style link-state shortest path bridging",
    factory=_spb_factory,
    warmup=8.0,
    loop_safe=True,
    order=30,
    control_ethertypes=(ETHERTYPE_LSP,),
    options=(
        FamilyOption("hello_interval", "float", DEFAULT_HELLO_INTERVAL,
                     "adjacency hello period (seconds)"),
        FamilyOption("hello_hold", "float", DEFAULT_HELLO_HOLD,
                     "adjacency hold time before expiry (seconds)"),
        FamilyOption("lsp_refresh", "float", DEFAULT_LSP_REFRESH,
                     "periodic LSP re-origination interval (seconds)"),
        FamilyOption("lsp_max_age", "float", DEFAULT_LSP_MAX_AGE,
                     "LSDB entry lifetime without refresh (seconds)"),
        FamilyOption("host_aging", "float", DEFAULT_HOST_AGING,
                     "advertised-host aging time (seconds)"),
    ),
))
