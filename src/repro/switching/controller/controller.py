"""The out-of-band controller node: global graph, SPF, flow programming.

One :class:`Controller` per network, wired to every bridge by a
dedicated star link of latency ``rtt / 2`` (so any bridge ↔ controller
exchange costs exactly one RTT per round trip). The controller is a
plain :class:`~repro.netsim.node.Node` — not a bridge — flagged
``out_of_band`` so topology oracles, fabric listings and churn link
flaps never see its star.

State is rebuilt entirely from southbound reports: SWITCH_ENTER maps a
star port to a bridge, LINK_REPORTs grow a weighted adjacency map,
HOST_REPORTs locate endpoints, PACKET_INs trigger SPF path installs and
PORT_STATUS reports trigger the barriered repair exchange.

Determinism discipline: every decision iterates *sorted* structures
(bridge MACs, flow keys), same-instant event handling is
order-insensitive (idempotent edge removal, count-based ack barriers),
and ECMP choice is a CRC32 hash over a lexicographically sorted path
enumeration — so sharded runs replay byte-identically regardless of
how simultaneous reports interleave.

The repair timeline is pinned (tested): for a link cut detected at
``t``, PORT_STATUS reaches the controller at ``t + RTT/2``,
FLOW_REMOVEs reach the affected bridges at ``t + RTT``, REMOVE_ACKs
complete the barrier at ``t + 3·RTT/2``, the recomputed FLOW_INSTALLs
land at ``t + 2·RTT`` and take effect after the flow-mod programming
delay — repair latency = ``2 × rtt + install_latency``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union
from zlib import crc32

from repro.frames.ethernet import ETHERTYPE_CONTROLLER, EthernetFrame
from repro.frames.mac import MAC, ZERO
from repro.netsim.engine import Simulator
from repro.netsim.node import Node, Port
from repro.switching.controller.config import ControllerConfig
from repro.switching.controller.frames import (
    FLAG_FLOOD, FLAG_RECORD_REPAIR, FLAG_UP, ControllerControl, NO_PORT,
    OP_FLOW_EXPIRED, OP_HOST_REPORT, OP_LINK_REPORT, OP_PACKET_IN,
    OP_PORT_STATUS, OP_REMOVE_ACK, OP_SWITCH_ENTER, make_flood_rule,
    make_flow_install, make_flow_remove)

FlowKey = Union[MAC, Tuple[MAC, MAC]]

#: An undirected fabric edge as a canonical sortable key.
EdgeKey = Tuple[int, int]


def _edge_key(a: MAC, b: MAC) -> EdgeKey:
    return (a.value, b.value) if a.value <= b.value else (b.value, a.value)


class _Edge:
    """One undirected fabric edge, shared by ``adj[a][b]`` and
    ``adj[b][a]``: the latest reported latency and, per side that has
    reported it, the bridge MAC -> port index."""

    __slots__ = ("weight", "ports")

    def __init__(self, weight: float):
        self.weight = weight
        self.ports: Dict[MAC, int] = {}


def _key_sort(key: FlowKey) -> Tuple[int, int, int]:
    """A total order over flow keys (MACs before pairs)."""
    if isinstance(key, tuple):
        return (1, key[0].value, key[1].value)
    return (0, key.value, 0)


@dataclass
class _Flow:
    """Controller-side record of one programmed flow."""

    #: Bridge MAC -> out-port index installed there.
    installs: Dict[MAC, int] = field(default_factory=dict)
    #: Fabric edges the programmed paths traverse.
    edges: Set[EdgeKey] = field(default_factory=set)
    #: Bridges that punted a PACKET_IN for this key (repair re-install
    #: recomputes one path per ingress).
    ingresses: Set[MAC] = field(default_factory=set)
    #: True while a remove barrier is outstanding for this key.
    repairing: bool = False


@dataclass
class _Barrier:
    """One outstanding FLOW_REMOVE barrier (count-based, per bridge)."""

    #: Remove-acks still expected per bridge MAC.
    pending: Dict[MAC, int]
    #: Flow keys being repaired, in deterministic (sorted) order.
    keys: List[FlowKey]
    #: Failure-detection time reported by the dataplane.
    detect_time: float

    @property
    def expected(self) -> int:
        return sum(self.pending.values())


@dataclass
class ControllerCounters:
    switches: int = 0
    link_reports: int = 0
    host_reports: int = 0
    packet_ins: int = 0
    installs_sent: int = 0
    removes_sent: int = 0
    flood_rules_sent: int = 0
    recomputes: int = 0
    repairs_started: int = 0
    repairs_completed: int = 0


class Controller(Node):
    """The centralized control plane (out-of-band, one per network)."""

    out_of_band = True

    def __init__(self, sim: Simulator, name: str, mac: MAC,
                 config: ControllerConfig):
        super().__init__(sim, name)
        self.mac = mac
        self.config = config
        self.counters = ControllerCounters()
        #: The global fabric graph: bridge MAC -> neighbour MAC -> the
        #: :class:`_Edge` both directions share.
        self.adj: Dict[MAC, Dict[MAC, _Edge]] = {}
        #: Bridge MAC -> our star port toward it.
        self._port_of: Dict[MAC, Port] = {}
        #: Host MAC -> (attachment bridge MAC, edge port index).
        self.hosts: Dict[MAC, Tuple[MAC, int]] = {}
        #: Flow key -> programmed-flow record.
        self.flows: Dict[FlowKey, _Flow] = {}
        #: Barrier id -> outstanding repair exchange.
        self._barriers: Dict[int, _Barrier] = {}
        #: PACKET_INs punted for a repairing key: key -> asking bridges.
        self._queued: Dict[FlowKey, Set[MAC]] = {}
        self._barrier_seq = 0
        self._flood_version = 0
        self._recompute_event = None

    # -- southbound sends --------------------------------------------------

    def _send(self, bridge: MAC, msg: ControllerControl) -> bool:
        port = self._port_of.get(bridge)
        if port is None or not port.is_up:
            return False
        port.send(EthernetFrame(dst=bridge, src=self.mac,
                                ethertype=ETHERTYPE_CONTROLLER, payload=msg))
        return True

    # -- frame entry -------------------------------------------------------

    def handle_frame(self, port: Port, frame: EthernetFrame) -> None:
        msg = frame.payload
        if not isinstance(msg, ControllerControl):
            return
        op = msg.op
        if op == OP_SWITCH_ENTER:
            self._on_switch_enter(port, msg)
        elif op == OP_LINK_REPORT:
            self._on_link_report(msg)
        elif op == OP_PORT_STATUS:
            self._on_port_status(msg)
        elif op == OP_HOST_REPORT:
            self._on_host_report(msg)
        elif op == OP_PACKET_IN:
            self._on_packet_in(msg)
        elif op == OP_REMOVE_ACK:
            self._on_remove_ack(msg)
        elif op == OP_FLOW_EXPIRED:
            self._on_flow_expired(msg)

    # -- discovery ---------------------------------------------------------

    def _on_switch_enter(self, port: Port, msg: ControllerControl) -> None:
        bridge = msg.origin
        self._port_of[bridge] = port
        self.adj.setdefault(bridge, {})
        self.counters.switches += 1

    def _on_link_report(self, msg: ControllerControl) -> None:
        a, b, latency = msg.origin, msg.src, msg.time
        self.counters.link_reports += 1
        peers = self.adj.setdefault(a, {})
        edge = peers.get(b)
        if edge is None:
            edge = peers[b] = self.adj.setdefault(b, {})[a] = _Edge(latency)
        edge.weight = latency
        edge.ports[a] = msg.port
        self._schedule_recompute()

    def _on_host_report(self, msg: ControllerControl) -> None:
        host, bridge, port_index = msg.src, msg.origin, msg.port
        self.counters.host_reports += 1
        known = self.hosts.get(host)
        if known is not None and known != (bridge, port_index):
            # The host moved: invalidate every flow involving it so the
            # next miss re-routes to the new attachment point.
            self._invalidate_host_flows(host)
        self.hosts[host] = (bridge, port_index)

    def _invalidate_host_flows(self, host: MAC) -> None:
        stale = [key for key in self.flows
                 if (key == host or (isinstance(key, tuple) and host in key))]
        for key in sorted(stale, key=_key_sort):
            self._remove_flow(key)

    def _remove_flow(self, key: FlowKey) -> None:
        """Fire-and-forget removal (no barrier: acks for id 0 are ignored)."""
        flow = self.flows.pop(key, None)
        if flow is None:
            return
        self._queued.pop(key, None)
        src, dst = self._key_macs(key)
        for bridge in sorted(flow.installs, key=lambda m: m.value):
            if self._send(bridge, make_flow_remove(self.mac, src, dst, 0)):
                self.counters.removes_sent += 1

    # -- carrier / topology change -----------------------------------------

    def _on_port_status(self, msg: ControllerControl) -> None:
        if msg.flags & FLAG_UP:
            return  # link-up is learnt through fresh LINK_REPORTs
        bridge, port_index, neighbor = msg.origin, msg.port, msg.src
        # Hosts that sat on the dead port are gone from this attachment.
        stale_hosts = sorted(
            (host for host, loc in self.hosts.items()
             if loc == (bridge, port_index)), key=lambda m: m.value)
        for host in stale_hosts:
            del self.hosts[host]
            self._invalidate_host_flows(host)
        if neighbor == ZERO or neighbor not in self.adj.get(bridge, {}):
            return  # edge port, or the twin report already removed it
        del self.adj[bridge][neighbor]
        del self.adj[neighbor][bridge]
        self._schedule_recompute()
        self._start_repair(_edge_key(bridge, neighbor), msg.time)

    def link_state_changed(self, port: Port, up: bool) -> None:
        """A star link changed carrier: a bridge died or came back.

        Death prunes the bridge from the graph and settles any barrier
        acks it can no longer send; resurrection is handled by the
        bridge's own SWITCH_ENTER.
        """
        if up:
            return
        dead = next((mac for mac, p in self._port_of.items() if p is port),
                    None)
        if dead is None:
            return
        if dead in self.adj:
            peers = self.adj[dead]
            cut_edges = [_edge_key(dead, peer) for peer in peers]
            for peer in peers:
                del self.adj[peer][dead]
            self.adj[dead] = {}
            self._schedule_recompute()
            for edge in sorted(cut_edges):
                self._start_repair(edge, self.sim.now)
        for barrier_id in sorted(self._barriers):
            barrier = self._barriers[barrier_id]
            if barrier.pending.pop(dead, 0) and barrier.expected == 0:
                self._complete_barrier(barrier_id)

    # -- repair (barriered remove -> recompute -> install) ------------------

    def _start_repair(self, edge: EdgeKey, detect_time: float) -> None:
        affected = sorted(
            (key for key, flow in self.flows.items()
             if edge in flow.edges and not flow.repairing),
            key=_key_sort)
        if not affected:
            return
        self._barrier_seq += 1
        barrier_id = self._barrier_seq
        pending: Dict[MAC, int] = {}
        for key in affected:
            flow = self.flows[key]
            flow.repairing = True
            src, dst = self._key_macs(key)
            for bridge in sorted(flow.installs, key=lambda m: m.value):
                if self._send(bridge, make_flow_remove(self.mac, src, dst,
                                                       barrier_id)):
                    self.counters.removes_sent += 1
                    pending[bridge] = pending.get(bridge, 0) + 1
        self.counters.repairs_started += 1
        self._barriers[barrier_id] = _Barrier(
            pending=pending, keys=affected, detect_time=detect_time)
        if not pending:
            self._complete_barrier(barrier_id)

    def _on_remove_ack(self, msg: ControllerControl) -> None:
        barrier = self._barriers.get(msg.seq)
        if barrier is None:
            return
        left = barrier.pending.get(msg.origin, 0)
        if left <= 1:
            barrier.pending.pop(msg.origin, None)
        else:
            barrier.pending[msg.origin] = left - 1
        if barrier.expected == 0:
            self._complete_barrier(msg.seq)

    def _complete_barrier(self, barrier_id: int) -> None:
        barrier = self._barriers.pop(barrier_id)
        for key in barrier.keys:
            flow = self.flows.get(key)
            if flow is None:
                continue
            ingresses = sorted(flow.ingresses, key=lambda m: m.value)
            flow.installs.clear()
            flow.edges.clear()
            flow.repairing = False
            src, dst = self._key_macs(key)
            for ingress in ingresses:
                self._install_path(key, ingress, src, dst, record=True,
                                   detect_time=barrier.detect_time)
            queued = self._queued.pop(key, None)
            if queued:
                for asker in sorted(queued, key=lambda m: m.value):
                    if asker not in ingresses:
                        self._install_path(key, asker, src, dst)
        self.counters.repairs_completed += 1

    # -- packet-in / path programming --------------------------------------

    def _on_packet_in(self, msg: ControllerControl) -> None:
        self.counters.packet_ins += 1
        asker, src, dst = msg.origin, msg.src, msg.dst
        key = self._key(src, dst)
        flow = self.flows.get(key)
        if flow is not None and flow.repairing:
            self._queued.setdefault(key, set()).add(asker)
            return
        self._install_path(key, asker, src, dst)
        # Pre-warm the reverse direction so the reply does not pay its
        # own packet-in round trip (the OpenFlow reactive idiom).
        rkey = self._key(dst, src)
        if self.flows.get(rkey) is None and src.is_unicast:
            rloc = self.hosts.get(src)
            if rloc is not None:
                dst_loc = self.hosts.get(dst)
                if dst_loc is not None:
                    self._install_path(rkey, dst_loc[0], dst, src)

    def _key(self, src: MAC, dst: MAC) -> FlowKey:
        return (src, dst) if self.config.ecmp else dst

    @staticmethod
    def _key_macs(key: FlowKey) -> Tuple[MAC, MAC]:
        if isinstance(key, tuple):
            return key
        return ZERO, key

    def _install_path(self, key: FlowKey, ingress: MAC, src: MAC, dst: MAC,
                      record: bool = False,
                      detect_time: float = 0.0) -> None:
        """Program one SPF path from *ingress* to *dst*'s bridge.

        Unknown or unreachable destinations get a flood-verdict entry at
        the ingress (short idle timeout): frames follow the broadcast
        tree until the destination is reported.
        """
        loc = self.hosts.get(dst)
        flags = FLAG_RECORD_REPAIR if record else 0
        if loc is None:
            self._send_install(key, ingress, src, dst, NO_PORT,
                               flags=FLAG_FLOOD)
            return
        dst_bridge, dst_port = loc
        path = self._path(ingress, dst_bridge, src, dst)
        if path is None:
            self._send_install(key, ingress, src, dst, NO_PORT,
                               flags=FLAG_FLOOD)
            return
        flow = self.flows.get(key)
        if flow is None:
            flow = self.flows[key] = _Flow()
        flow.ingresses.add(ingress)
        hops: List[Tuple[MAC, int]] = []
        for here, there in zip(path, path[1:]):
            out = self.adj[here][there].ports.get(here)
            if out is None:
                # One-sided adjacency (report still in flight): treat
                # as unreachable rather than programming a wrong port.
                self._send_install(key, ingress, src, dst, NO_PORT,
                                   flags=FLAG_FLOOD)
                return
            hops.append((here, out))
            flow.edges.add(_edge_key(here, there))
        hops.append((dst_bridge, dst_port))
        for bridge, out in hops:
            flow.installs[bridge] = out
            self._send_install(key, bridge, src, dst, out,
                               flags=flags if bridge == ingress else 0,
                               detect_time=detect_time)

    def _send_install(self, key: FlowKey, bridge: MAC, src: MAC, dst: MAC,
                      out_port: int, flags: int = 0,
                      detect_time: float = 0.0) -> None:
        wire_src, wire_dst = self._key_macs(key)
        if self._send(bridge, make_flow_install(
                self.mac, wire_src, wire_dst, out_port, flags=flags,
                detect_time=detect_time)):
            self.counters.installs_sent += 1

    def _on_flow_expired(self, msg: ControllerControl) -> None:
        key = (msg.src, msg.dst) if msg.src != ZERO else msg.dst
        flow = self.flows.get(key)
        if flow is None or flow.repairing:
            return
        flow.installs.pop(msg.origin, None)
        flow.ingresses.discard(msg.origin)
        if not flow.installs:
            del self.flows[key]
            self._queued.pop(key, None)

    # -- SPF ---------------------------------------------------------------

    def _dijkstra(self, root: MAC) -> Dict[MAC, float]:
        """Shortest distances from *root*, deterministic pop order."""
        adj = self.adj
        dist: Dict[MAC, float] = {root: 0.0}
        heap: List[Tuple[float, int, MAC]] = [(0.0, root.value, root)]
        done: Set[MAC] = set()
        while heap:
            d, _tie, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbor in sorted(adj[node], key=lambda m: m.value):
                nd = d + adj[node][neighbor].weight
                old = dist.get(neighbor)
                if old is None or nd < old:
                    dist[neighbor] = nd
                    heapq.heappush(heap, (nd, neighbor.value, neighbor))
        return dist

    def _path(self, a: MAC, b: MAC, src: MAC,
              dst: MAC) -> Optional[Tuple[MAC, ...]]:
        """A deterministic shortest path from bridge *a* to bridge *b*.

        Without ECMP: the unique lowest-MAC tie-broken SPF path. With
        ECMP: all equal-cost shortest paths are enumerated in
        lexicographic order (capped) and one is picked by a CRC32 hash
        of the (src, dst) pair — a stable per-flow split.
        """
        if a not in self.adj or b not in self.adj:
            return None
        if a == b:
            return (a,)
        dist = self._dijkstra(a)
        if b not in dist:
            return None
        if not self.config.ecmp:
            return self._walk_back(a, b, dist)
        paths = self._all_shortest(a, b, dist)
        if not paths:
            return None
        pick = crc32(src.to_bytes() + dst.to_bytes()) % len(paths)
        return paths[pick]

    def _preds(self, v: MAC, dist: Dict[MAC, float]) -> List[MAC]:
        """Neighbors of *v* on some shortest path, lowest MAC first."""
        dv = dist[v]
        out = []
        for u in sorted(self.adj[v], key=lambda m: m.value):
            du = dist.get(u)
            if du is not None and du + self.adj[v][u].weight == dv:
                out.append(u)
        return out

    def _walk_back(self, a: MAC, b: MAC,
                   dist: Dict[MAC, float]) -> Optional[Tuple[MAC, ...]]:
        path = [b]
        node = b
        while node != a:
            preds = self._preds(node, dist)
            if not preds:
                return None
            node = preds[0]
            path.append(node)
        return tuple(reversed(path))

    def _all_shortest(self, a: MAC, b: MAC,
                      dist: Dict[MAC, float]) -> List[Tuple[MAC, ...]]:
        """Equal-cost shortest paths a→b in lexicographic order, capped."""
        cap = max(1, self.config.ecmp_max_paths)
        paths: List[Tuple[MAC, ...]] = []

        def extend(node: MAC, suffix: Tuple[MAC, ...]) -> None:
            if len(paths) >= cap:
                return
            if node == a:
                paths.append((a,) + suffix)
                return
            for pred in self._preds(node, dist):
                extend(pred, (node,) + suffix)
                if len(paths) >= cap:
                    return

        extend(b, ())
        return paths

    # -- flood tree --------------------------------------------------------

    def _schedule_recompute(self) -> None:
        if self._recompute_event is None:
            self._recompute_event = self.sim.schedule(
                self.config.recompute_debounce, self._recompute_flood)

    def _recompute_flood(self) -> None:
        """Recompute the broadcast tree and push FLOOD_RULEs (debounced)."""
        self._recompute_event = None
        self.counters.recomputes += 1
        if not self._port_of:
            return
        tree_ports: Dict[MAC, Set[int]] = {}
        if self.adj:
            root = min(self.adj, key=lambda m: m.value)
            parent = self._spf_parents(root)
            for child, par in parent.items():
                if par is None:
                    continue
                ports = self.adj[child][par].ports
                child_port = ports.get(child)
                par_port = ports.get(par)
                if child_port is None or par_port is None:
                    continue
                tree_ports.setdefault(child, set()).add(child_port)
                tree_ports.setdefault(par, set()).add(par_port)
        self._flood_version += 1
        for bridge in sorted(self._port_of, key=lambda m: m.value):
            ports = tuple(sorted(tree_ports.get(bridge, ())))
            if self._send(bridge, make_flood_rule(self.mac,
                                                  self._flood_version,
                                                  ports)):
                self.counters.flood_rules_sent += 1

    def _spf_parents(self, root: MAC) -> Dict[MAC, Optional[MAC]]:
        """SPF parent per node (lowest-MAC tie-broken, like SPB's ECT)."""
        adj = self.adj
        dist: Dict[MAC, float] = {root: 0.0}
        parent: Dict[MAC, Optional[MAC]] = {root: None}
        heap: List[Tuple[float, int, MAC]] = [(0.0, root.value, root)]
        done: Set[MAC] = set()
        while heap:
            d, _tie, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbor in sorted(adj[node], key=lambda m: m.value):
                nd = d + adj[node][neighbor].weight
                old = dist.get(neighbor)
                better = old is None or nd < old
                same_but_lower = (old is not None and nd == old
                                  and parent[neighbor] is not None
                                  and node.value < parent[neighbor].value)
                if better or same_but_lower:
                    dist[neighbor] = nd
                    parent[neighbor] = node
                    heapq.heappush(heap, (nd, neighbor.value, neighbor))
        return parent

    def __repr__(self) -> str:
        return (f"<Controller {self.name} switches={len(self._port_of)} "
                f"edges={sum(map(len, self.adj.values())) // 2} "
                f"flows={len(self.flows)}>")
