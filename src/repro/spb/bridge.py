"""A shortest-path bridge: link-state control plane at layer two.

Implements the SPB/TRILL-style baseline: adjacency hellos, LSP flooding
with sequence numbers, Dijkstra SPF with symmetric (lowest-MAC)
tie-breaking, host attachment advertisement, and per-source shortest
path trees with reverse-path-forwarding checks for broadcast.

Everything ARP-Path gets for free — loop-free broadcast, unicast paths,
failure recovery — here requires explicit control machinery; the
broadcast/control overhead experiments quantify that difference.

Forwarding state is installed per LSDB version, as an 802.1aq bridge
installs it when SPF runs: every LSDB change bumps ``_version`` and
empties the three forwarding maps, which the data plane refills
lazily, one entry per destination host, broadcast source or tree root.
A frame then costs one probe of its map plus the liveness checks that
can lapse without an LSDB change: a local host's deadline, the chosen
neighbour's hello deadline and the out link's carrier. SPF trees and
the adjacency graph are keyed on ``_adj_version`` instead, which moves
only when an LSP's adjacencies change, an origin appears or leaves, or
the bridge is reset: a host-only LSP re-runs no Dijkstra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.frames.ethernet import ETHERTYPE_LSP, EthernetFrame
from repro.frames.mac import _GROUP_BIT, MAC
from repro.netsim.engine import Simulator
from repro.netsim.node import Port
from repro.spb.lsp import (Adjacency, LinkStatePacket, SPB_MULTICAST,
                           SpbHello)
from repro.switching.base import (Bridge, BridgeFamily, FamilyOption,
                                  register_family)
from repro.switching.spf import ShortestPathTree, shortest_path_tree

DEFAULT_HELLO_INTERVAL = 1.0
DEFAULT_HELLO_HOLD = 3.5
DEFAULT_LSP_REFRESH = 10.0
DEFAULT_LSP_MAX_AGE = 60.0
DEFAULT_HOST_AGING = 300.0


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


class SpbBridge(Bridge):
    """A bridge running a link-state shortest-path control plane."""

    #: Link-state frames (hellos and LSPs) are control.
    control_ethertypes = frozenset((ETHERTYPE_LSP,))

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
        #: Neighbour bridge MAC per port index, with hold deadline. An
        #: entry appears, leaves or changes its MAC only together with
        #: an LSP origination (a ``_version`` bump); a hello refreshes
        #: the deadline alone.
        self._neighbor: Dict[int, Tuple[MAC, float]] = {}
        #: Locally attached hosts: MAC value -> ``[port, expiry, MAC]``.
        #: A refresh rewrites the expiry in place; a new or moved host
        #: gets a new record and an LSP origination.
        self._local_hosts: Dict[int, list] = {}
        #: The link-state database: origin -> (LSP, received time).
        self._lsdb: Dict[MAC, Tuple[LinkStatePacket, float]] = {}
        self._own_seq = 0
        self._hello_seq = 0
        #: Bumped on every LSDB change (module docstring).
        self._version = 0
        #: Bumped only when the adjacency graph may have changed.
        self._adj_version = 0
        self._spf_cache: Dict[MAC, Tuple[int, ShortestPathTree]] = {}
        #: The two-way adjacency graph of adjacency version ``[0]``,
        #: shared by every root's SPF run at that version.
        self._graph: Tuple[int, Dict[MAC, List[Tuple[MAC, float]]]] = \
            (-1, {})
        # The forwarding state of this ``_version``, built lazily:
        #: destination value -> (its local host record or None, the
        #: ``(index, port)`` of every neighbour on the first hop toward
        #: its attachment bridge, in ``_neighbor`` order);
        self._unicast: Dict[int, Tuple[Optional[list], tuple]] = {}
        #: broadcast source value -> (its local host record or None, its
        #: attachment bridge or None, the expected RPF neighbour's value
        #: or None, the flood plan of its tree or None);
        self._sources: Dict[int, tuple] = {}
        #: tree root value -> flood plan: ``(port, index)`` for every
        #: port, where index None sends always (a host port or a tree
        #: child) and a port index sends only while that neighbour's
        #: hello has lapsed (it is then a host port).
        self._plans: Dict[int, Tuple[Tuple[Port, Optional[int]], ...]] = {}
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
        self._bump_version(adjacencies=True)

    def add_port(self) -> Port:
        # Flood plans list every port: a new one joins them.
        self._sources.clear()
        self._plans.clear()
        return super().add_port()

    def _on_hello_tick(self) -> None:
        self._send_hellos()
        self._age_out()

    def _age_out(self) -> None:
        now = self.sim._now
        changed = False
        for index, (_mac, deadline) in list(self._neighbor.items()):
            if deadline <= now:
                del self._neighbor[index]
                changed = True
        for key, record in list(self._local_hosts.items()):
            if record[1] <= now:
                del self._local_hosts[key]
                changed = True
        mine = self.mac._value
        for origin, (_lsp, received) in list(self._lsdb.items()):
            if origin._value != mine and received + self.lsp_max_age <= now:
                del self._lsdb[origin]
                self._bump_version(adjacencies=True)
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
        stale = [key for key, record in self._local_hosts.items()
                 if record[0] is port]
        if stale:
            for key in stale:
                del self._local_hosts[key]
            self._originate_lsp()

    # -- port classification ----------------------------------------------

    def is_bridge_port(self, port: Port) -> bool:
        return self.neighbor_on(port) is not None

    def is_host_port(self, port: Port) -> bool:
        return port.is_attached and not self.is_bridge_port(port)

    def neighbor_on(self, port: Port) -> Optional[MAC]:
        entry = self._neighbor.get(port.index)
        if entry is None or entry[1] <= self.sim._now:
            return None
        return entry[0]

    # -- control plane -------------------------------------------------------

    def _send_hellos(self) -> None:
        self._hello_seq += 1
        hello = SpbHello(origin=self.mac, seq=self._hello_seq)
        for port in self.ports:
            link = port.link
            if link is None or not link.up:
                continue
            self.spb_counters.hellos_sent += 1
            self.counters.control_sent += 1
            link.transmit(port, EthernetFrame(SPB_MULTICAST, self.mac,
                                              ETHERTYPE_LSP, hello))

    def _originate_lsp(self) -> None:
        """Advertise our adjacencies and attached hosts to the network."""
        now = self.sim._now
        adjacencies = tuple(sorted(
            (Adjacency(neighbor=mac) for _idx, (mac, deadline)
             in self._neighbor.items() if deadline > now),
            key=lambda adj: adj.neighbor._value))
        hosts = tuple(record[2] for _key, record
                      in sorted(self._local_hosts.items())
                      if record[1] > now)
        self._own_seq += 1
        lsp = LinkStatePacket(origin=self.mac, seq=self._own_seq,
                              adjacencies=adjacencies, hosts=hosts)
        held = self._lsdb.get(self.mac)
        self._lsdb[self.mac] = (lsp, now)
        self._bump_version(held is None
                           or held[0].adjacencies != adjacencies)
        self.spb_counters.lsps_originated += 1
        self._flood_lsp(lsp, exclude=None)

    def _flood_lsp(self, lsp: LinkStatePacket,
                   exclude: Optional[Port]) -> None:
        now = self.sim._now
        neighbor = self._neighbor
        ports = self.ports
        # Bridge ports in port order: only they can hold a live neighbour.
        for index in sorted(neighbor):
            port = ports[index]
            if port is exclude or neighbor[index][1] <= now:
                continue
            link = port.link
            if link is None or not link.up:
                continue
            self.spb_counters.lsps_flooded += 1
            self.counters.control_sent += 1
            link.transmit(port, EthernetFrame(SPB_MULTICAST, self.mac,
                                              ETHERTYPE_LSP, lsp))

    def _handle_hello(self, port: Port, hello: SpbHello) -> None:
        self.spb_counters.hellos_received += 1
        known = self._neighbor.get(port.index)
        self._neighbor[port.index] = (hello.origin,
                                      self.sim._now + self.hello_hold)
        if known is None or known[0]._value != hello.origin._value:
            # New adjacency: advertise it and bring the peer up to date.
            self._originate_lsp()
            self._send_database(port)

    def _send_database(self, port: Port) -> None:
        """Unicast-style LSDB sync to a new neighbour (flood our copy)."""
        mine = self.mac._value
        for origin, (lsp, _received) in self._lsdb.items():
            if origin._value == mine:
                continue  # our own LSP was just flooded by _originate_lsp
            self.spb_counters.lsps_flooded += 1
            self.counters.control_sent += 1
            port.send(EthernetFrame(dst=SPB_MULTICAST, src=self.mac,
                                    ethertype=ETHERTYPE_LSP, payload=lsp))

    def _handle_lsp(self, port: Port, lsp: LinkStatePacket) -> None:
        self.spb_counters.lsps_received += 1
        if lsp.origin._value == self.mac._value:
            return
        held = self._lsdb.get(lsp.origin)
        if held is not None and not lsp.newer_than(held[0]):
            self.spb_counters.lsps_stale += 1
            return
        self._lsdb[lsp.origin] = (lsp, self.sim._now)
        self._bump_version(held is None
                           or held[0].adjacencies != lsp.adjacencies)
        self._flood_lsp(lsp, exclude=port)

    def _bump_version(self, adjacencies: bool) -> None:
        """The LSDB changed: drop the forwarding state built for it, and
        the SPF trees too when *adjacencies* may have changed."""
        self._version += 1
        if adjacencies:
            self._adj_version += 1
        self._unicast.clear()
        self._sources.clear()
        self._plans.clear()

    # -- SPF ---------------------------------------------------------------

    def _bidirectional_edges(self) -> Dict[MAC, List[Tuple[MAC, float]]]:
        """The adjacency graph, keeping only two-way-confirmed links.

        Each bridge's list is sorted by neighbour MAC value, the order
        :func:`~repro.switching.spf.shortest_path_tree` expects.
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

    def _spf(self, root: MAC) -> ShortestPathTree:
        """The LSDB's shortest-path tree from *root* (cached per
        adjacency version)."""
        version = self._adj_version
        cached = self._spf_cache.get(root)
        if cached is not None and cached[0] == version:
            return cached[1]
        self.spb_counters.spf_runs += 1
        built, graph = self._graph
        if built != version:
            graph = self._bidirectional_edges()
            self._graph = (version, graph)
        result = shortest_path_tree(root, graph)
        self._spf_cache[root] = (version, result)
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
        """The first LSDB origin advertising *host* (our own LSP lists
        every local host we learned)."""
        value = host._value
        for origin, (lsp, _received) in self._lsdb.items():
            if value in lsp.host_values:
                return origin
        return None

    # -- forwarding state ----------------------------------------------------

    def _unicast_entry(self, host: MAC) -> Tuple[Optional[list], tuple]:
        """Install the forwarding state toward *host*: its local record
        and, for when that lapses, the ports toward its LSDB origin."""
        value = host._value
        candidates = ()
        origin = self.attachment_bridge(host)
        if origin is not None and origin._value != self.mac._value:
            hop = self._first_hop(origin)
            if hop is not None:
                hop = hop._value
                ports = self.ports
                candidates = tuple(
                    (index, ports[index]) for index, (mac, _deadline)
                    in self._neighbor.items() if mac._value == hop)
        entry = self._unicast[value] = (self._local_hosts.get(value),
                                        candidates)
        return entry

    def _source_entry(self, host: MAC) -> tuple:
        """Install the RPF state of broadcasts from *host*."""
        value = host._value
        origin = self.attachment_bridge(host)
        expected = plan = None
        if origin is not None:
            hop = self._first_hop(origin)
            if hop is not None:
                expected = hop._value
                plan = (self._plans.get(origin._value)
                        or self._flood_plan(origin))
        entry = self._sources[value] = (self._local_hosts.get(value),
                                        origin, expected, plan)
        return entry

    def _flood_plan(self, root: MAC) -> Tuple[Tuple[Port, Optional[int]],
                                              ...]:
        """Install the flood plan of the tree rooted at *root*."""
        parent = self._spf(root).parent
        mine = self.mac._value
        neighbor = self._neighbor
        plan = []
        for port in self.ports:
            held = neighbor.get(port.index)
            if held is None:
                plan.append((port, None))
                continue
            up = parent.get(held[0])
            child = up is not None and up._value == mine
            plan.append((port, None if child else port.index))
        plan = self._plans[root._value] = tuple(plan)
        return plan

    # -- data plane ----------------------------------------------------------

    def on_control(self, port: Port, frame: EthernetFrame) -> None:
        payload = frame.payload
        if isinstance(payload, SpbHello):
            self._handle_hello(port, payload)
        elif isinstance(payload, LinkStatePacket):
            self._handle_lsp(port, payload)

    def _learn_local_host(self, port: Port, src: MAC, now: float) -> None:
        """A data frame from *src* arrived on host port *port*: a known
        host on that port is refreshed in place, a new or moved one is
        advertised."""
        value = src._value
        if value & _GROUP_BIT:
            return
        known = self._local_hosts.get(value)
        if known is not None and known[0] is port:
            known[1] = now + self.host_aging
        else:
            self._local_hosts[value] = [port, now + self.host_aging, src]
            self._originate_lsp()

    def on_unicast(self, port: Port, frame: EthernetFrame) -> None:
        """One probe of the destination's forwarding state, then its
        liveness: the local host's deadline, else the first candidate
        neighbour whose hello is live and that link's carrier."""
        now = self.sim._now
        neighbor = self._neighbor
        held = neighbor.get(port.index)
        if (held is None or held[1] <= now) and port.link is not None:
            self._learn_local_host(port, frame.src, now)
        entry = self._unicast.get(frame.dst._value)
        if entry is None:
            entry = self._unicast_entry(frame.dst)
        local, candidates = entry
        if local is not None and local[1] > now:
            out_port = local[0]
            if out_port is port:
                self.filter_frame()
                return
            self.counters.forwarded += 1
            link = out_port.link
            if link is not None and link.up:
                link.transmit(out_port, frame)
            return
        for index, out_port in candidates:
            if neighbor[index][1] > now:
                link = out_port.link
                if link is not None and link.up:
                    self.counters.forwarded += 1
                    link.transmit(out_port, frame)
                    return
                break
        self.spb_counters.unknown_unicast_drops += 1

    def on_broadcast(self, port: Port, frame: EthernetFrame) -> None:
        """Forward along the per-source shortest path tree.

        The tree is rooted at the source host's attachment bridge; we
        accept the frame only from the RPF direction and forward it to
        neighbours whose tree parent is this bridge, plus host ports.
        """
        now = self.sim._now
        neighbor = self._neighbor
        held = neighbor.get(port.index)
        live = held is not None and held[1] > now
        if live or port.link is None:
            source = self._sources.get(frame.src._value)
            if source is None:
                source = self._source_entry(frame.src)
            local, origin, expected, plan = source
            if local is not None and local[1] > now:
                # The source is attached here: no RPF hop leads to it.
                self.spb_counters.rpf_drops += 1
                return
            if origin is None:
                self.spb_counters.unknown_source_drops += 1
                return
            if expected is None or not live or held[0]._value != expected:
                self.spb_counters.rpf_drops += 1
                return
        else:
            # A host port: the tree is rooted here.
            self._learn_local_host(port, frame.src, now)
            plan = self._plans.get(self.mac._value)
            if plan is None:
                plan = self._flood_plan(self.mac)
        copies = 0
        for out_port, index in plan:
            if out_port is port:
                continue
            link = out_port.link
            if link is None or not link.up:
                continue
            if index is not None and neighbor[index][1] > now:
                continue
            copies += 1
            link.transmit(out_port, frame)
        self.counters.flooded_frames += 1
        self.counters.flooded_copies += copies

    #: ARP is ordinary broadcast here.
    on_arp = on_broadcast

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
    bridge=SpbBridge,
    warmup=8.0,
    loop_safe=True,
    order=30,
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
