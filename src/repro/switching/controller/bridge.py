"""A controller-managed bridge: no local intelligence, only a flow table.

The dataplane half of the centralized family. The bridge keeps an
:class:`~repro.netsim.aging.AgingStore` of installed flow entries with
idle and hard timeouts; a table miss buffers the frame and punts a
PACKET_IN to the controller over the dedicated out-of-band star link.
An expired flow is reported (FLOW_EXPIRED) when the store reclaims it:
by the lookup that finds it expired, else when its quarter-second
deadline bucket comes due — an OpenFlow switch likewise notices an idle
flow at its own scan granularity, not on a per-flow timer.
Broadcast forwards along the controller-pushed flood tree (plus local
edge ports); until the first FLOOD_RULE arrives broadcasts buffer, which
is what makes the family loop-safe from time zero.

Neighbor discovery is LLDP-style: periodic link-local probes carry the
send timestamp, so the receiver measures the link latency and reports
the adjacency northbound — that is how the controller's global graph
gets weighted edges without ever seeing the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.frames.ethernet import (ETHERTYPE_CONTROLLER, EthernetFrame)
from repro.frames.mac import MAC, ZERO
from repro.netsim.aging import AgingStore
from repro.netsim.engine import Simulator
from repro.netsim.node import Port
from repro.switching.base import Bridge, Dataplane
from repro.switching.controller.config import (ControllerConfig,
                                               DEFAULT_CONTROLLER_CONFIG)
from repro.switching.controller.frames import (
    FLAG_FLOOD, FLAG_RECORD_REPAIR, ControllerControl, LLDP_MULTICAST,
    OP_FLOOD_RULE, OP_FLOW_INSTALL, OP_FLOW_REMOVE, OP_LLDP,
    make_flow_expired, make_host_report, make_link_report, make_lldp,
    make_packet_in, make_port_status, make_remove_ack, make_switch_enter)

#: Flow keys: destination MAC (destination-keyed mode) or a
#: (src, dst) pair (ECMP mode).
FlowKey = Union[MAC, Tuple[MAC, MAC]]

#: The controller pipeline: one ethertype, typed payload required.
CONTROLLER_DATAPLANE = Dataplane(
    control_ethertypes=(ETHERTYPE_CONTROLLER,),
    control_payload=ControllerControl)


class FlowEntry:
    """One installed flow-table entry (mutable ``expires`` for aging)."""

    __slots__ = ("out_port", "flood", "idle", "expires", "hard_deadline")

    def __init__(self, out_port: int, flood: bool, idle: float,
                 expires: float, hard_deadline: float):
        self.out_port = out_port
        self.flood = flood
        self.idle = idle
        self.expires = expires
        self.hard_deadline = hard_deadline

    def refresh(self, now: float) -> None:
        """Idle-timer refresh, capped by the hard deadline."""
        self.expires = min(now + self.idle, self.hard_deadline)

    def __repr__(self) -> str:
        return (f"<FlowEntry out={self.out_port} flood={self.flood} "
                f"expires={self.expires:.6f}>")


@dataclass
class ControllerBridgeCounters:
    packet_ins: int = 0
    flow_installs: int = 0
    flow_removes: int = 0
    flow_expired: int = 0
    misses: int = 0
    frames_buffered: int = 0
    drops_buffer: int = 0
    broadcasts_buffered: int = 0
    drops_broadcast_buffer: int = 0
    lldp_sent: int = 0
    reports_sent: int = 0
    flood_rules: int = 0


class ControllerBridge(Bridge):
    """A bridge whose forwarding state is managed by a central controller."""

    dataplane = CONTROLLER_DATAPLANE

    def __init__(self, sim: Simulator, name: str, mac: MAC,
                 config: ControllerConfig = DEFAULT_CONTROLLER_CONFIG):
        super().__init__(sim, name, mac)
        self.config = config
        self.ctl_counters = ControllerBridgeCounters()
        #: Installed flow entries; reclamation notifies the controller
        #: (at most one store granule after the idle / hard deadline).
        self.flows = AgingStore(sim=sim, on_reap=self._on_flow_reap)
        #: Frames buffered per flow key while a PACKET_IN is outstanding.
        self._pending: Dict[FlowKey, List[Tuple[Port, EthernetFrame]]] = {}
        #: LLDP-learnt neighbor bridge MAC per port index.
        self._neighbor: Dict[int, MAC] = {}
        #: Last reported latency per port index (change detection).
        self._latency: Dict[int, float] = {}
        #: Locally seen hosts: MAC -> port index (for HOST_REPORTs).
        self._local_hosts: Dict[MAC, int] = {}
        #: Flood-tree port indices pushed by the controller, or None
        #: before the first FLOOD_RULE (broadcasts buffer meanwhile).
        self._tree_ports: Optional[frozenset] = None
        self._flood_version = -1
        self._bcast_buffer: List[Tuple[Port, EthernetFrame]] = []
        #: Completed repair durations (detect -> flow active), seconds.
        self.repair_times: List[float] = []
        self._controller_port: Optional[Port] = None
        self._controller_mac: Optional[MAC] = None
        self._lldp_timer = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        super().start()
        self._find_controller_port()
        self._send_switch_enter()
        self._send_lldp()
        self._lldp_timer = self.sim.schedule_periodic(
            self.config.lldp_interval, self._send_lldp)

    def stop(self) -> None:
        if self._lldp_timer is not None:
            self._lldp_timer.stop()
            self._lldp_timer = None

    def reset_state(self) -> None:
        """Power-cycle wipe: flow table, adjacency and buffered frames.

        ``repair_times`` and counters survive, like every family's
        mechanism counters do.
        """
        self.flows.clear()
        self._pending.clear()
        self._neighbor.clear()
        self._latency.clear()
        self._local_hosts.clear()
        self._tree_ports = None
        self._flood_version = -1
        self._bcast_buffer.clear()

    def _find_controller_port(self) -> None:
        for port in self.attached_ports:
            peer = port.peer
            if peer is not None and peer.node.out_of_band:
                self._controller_port = port
                self._controller_mac = peer.node.mac
                return

    # -- southbound channel ------------------------------------------------

    def _send_controller(self, msg: ControllerControl) -> None:
        port = self._controller_port
        if port is None or not port.is_up or self._controller_mac is None:
            return
        self.counters.control_sent += 1
        port.send(EthernetFrame(dst=self._controller_mac, src=self.mac,
                                ethertype=ETHERTYPE_CONTROLLER, payload=msg))

    def _send_switch_enter(self) -> None:
        self._send_controller(make_switch_enter(self.mac))

    def _send_lldp(self, only: Optional[Port] = None) -> None:
        ports = (only,) if only is not None else self.attached_ports
        now = self.sim.now
        for port in ports:
            if port is self._controller_port or not port.is_up:
                continue
            self.ctl_counters.lldp_sent += 1
            self.counters.control_sent += 1
            port.send(EthernetFrame(
                dst=LLDP_MULTICAST, src=self.mac,
                ethertype=ETHERTYPE_CONTROLLER,
                payload=make_lldp(self.mac, port.index, now)))

    # -- flow keys ---------------------------------------------------------

    def _key_of(self, src: MAC, dst: MAC) -> FlowKey:
        return (src, dst) if self.config.ecmp else dst

    @staticmethod
    def _key_from_msg(msg: ControllerControl) -> FlowKey:
        return (msg.src, msg.dst) if msg.src != ZERO else msg.dst

    # -- control plane (on_control) ----------------------------------------

    def on_control(self, port: Port, frame: EthernetFrame) -> None:
        self.counters.control_received += 1
        msg = frame.payload
        op = msg.op
        if op == OP_LLDP:
            self._handle_lldp(port, msg)
        elif op == OP_FLOW_INSTALL:
            self.sim.schedule(self.config.install_latency,
                              self._apply_install, msg)
        elif op == OP_FLOW_REMOVE:
            self._handle_remove(msg)
        elif op == OP_FLOOD_RULE:
            self._handle_flood_rule(msg)
        # Anything else on the wire is northbound traffic that only the
        # controller interprets; a bridge ignores it.

    def _handle_lldp(self, port: Port, msg: ControllerControl) -> None:
        latency = self.sim.now - msg.time
        known = self._neighbor.get(port.index)
        changed = known != msg.origin \
            or self._latency.get(port.index) != latency
        self._neighbor[port.index] = msg.origin
        self._latency[port.index] = latency
        if changed:
            self.ctl_counters.reports_sent += 1
            self._send_controller(make_link_report(
                self.mac, msg.origin, port.index, latency))

    def _apply_install(self, msg: ControllerControl) -> None:
        key = self._key_from_msg(msg)
        flood = bool(msg.flags & FLAG_FLOOD)
        idle = self.config.flow_idle_unknown if flood \
            else self.config.flow_idle
        now = self.sim.now
        hard = now + self.config.flow_hard
        entry = FlowEntry(out_port=msg.port, flood=flood, idle=idle,
                          expires=min(now + idle, hard), hard_deadline=hard)
        self.flows.put(key, entry)
        self.ctl_counters.flow_installs += 1
        if msg.flags & FLAG_RECORD_REPAIR:
            self.repair_times.append(now - msg.time)
        buffered = self._pending.pop(key, None)
        if buffered:
            for in_port, pending_frame in buffered:
                self._forward_entry(in_port, pending_frame, entry)

    def _handle_remove(self, msg: ControllerControl) -> None:
        key = self._key_from_msg(msg)
        self.flows.pop(key)
        self.ctl_counters.flow_removes += 1
        self._send_controller(make_remove_ack(self.mac, msg.seq))

    def _handle_flood_rule(self, msg: ControllerControl) -> None:
        if msg.seq < self._flood_version:
            return
        self._flood_version = msg.seq
        self._tree_ports = frozenset(msg.ports)
        self.ctl_counters.flood_rules += 1
        if self._bcast_buffer:
            buffered, self._bcast_buffer = self._bcast_buffer, []
            for in_port, pending_frame in buffered:
                self._flood_tree(pending_frame, exclude=in_port)

    def _on_flow_reap(self, key: FlowKey, entry: FlowEntry) -> None:
        self.ctl_counters.flow_expired += 1
        if isinstance(key, tuple):
            src, dst = key
        else:
            src, dst = ZERO, key
        self._send_controller(make_flow_expired(self.mac, src, dst))

    # -- data plane --------------------------------------------------------

    def admit_data(self, port: Port, frame: EthernetFrame) -> bool:
        if port is self._controller_port:
            return False
        src = frame.src
        if src.is_unicast and port.index not in self._neighbor \
                and self._local_hosts.get(src) != port.index:
            self._local_hosts[src] = port.index
            self.ctl_counters.reports_sent += 1
            self._send_controller(make_host_report(self.mac, src,
                                                   port.index))
        return True

    def on_broadcast(self, port: Port, frame: EthernetFrame) -> None:
        if self._tree_ports is None:
            if len(self._bcast_buffer) < self.config.broadcast_buffer:
                self.ctl_counters.broadcasts_buffered += 1
                self._bcast_buffer.append((port, frame))
            else:
                self.ctl_counters.drops_broadcast_buffer += 1
            return
        self._flood_tree(frame, exclude=port)

    def _flood_tree(self, frame: EthernetFrame,
                    exclude: Optional[Port]) -> None:
        """Flood on the controller-pushed tree ports plus edge ports."""
        tree = self._tree_ports or frozenset()
        copies = 0
        for port in self.attached_ports:
            if port is exclude or port is self._controller_port:
                continue
            if port.index not in tree and port.index in self._neighbor:
                continue  # non-tree fabric port: the tree covers it
            if not port.is_up:
                continue
            copies += 1
            port.send(frame)
        self.counters.flooded_frames += 1
        self.counters.flooded_copies += copies

    def on_unicast(self, port: Port, frame: EthernetFrame) -> None:
        if frame.dst == self.mac:
            self.filter_frame()
            return
        key = self._key_of(frame.src, frame.dst)
        entry = self.flows.get(key, self.sim.now)
        if entry is None:
            self._miss(port, frame, key)
            return
        if not entry.flood:
            out = self.ports[entry.out_port]
            if not out.is_up:
                # The installed port lost carrier: drop the entry and
                # punt, exactly like a fresh miss — the controller is
                # repairing (or will re-route on this PACKET_IN).
                self.flows.pop(key)
                self._miss(port, frame, key)
                return
        self._forward_entry(port, frame, entry)
        entry.refresh(self.sim.now)

    def _forward_entry(self, in_port: Port, frame: EthernetFrame,
                       entry: FlowEntry) -> None:
        if entry.flood:
            self._flood_tree(frame, exclude=in_port)
            return
        out = self.ports[entry.out_port]
        if out is in_port or not out.is_up:
            self.filter_frame()
            return
        self.forward(out, frame)

    def _miss(self, port: Port, frame: EthernetFrame, key: FlowKey) -> None:
        self.ctl_counters.misses += 1
        buffered = self._pending.get(key)
        if buffered is not None:
            if len(buffered) < self.config.miss_buffer:
                self.ctl_counters.frames_buffered += 1
                buffered.append((port, frame))
            else:
                self.ctl_counters.drops_buffer += 1
            return
        self._pending[key] = [(port, frame)]
        self.ctl_counters.frames_buffered += 1
        self.ctl_counters.packet_ins += 1
        self._send_controller(make_packet_in(self.mac, frame.src, frame.dst,
                                             port.index))

    # -- carrier events ----------------------------------------------------

    def link_state_changed(self, port: Port, up: bool) -> None:
        if port is self._controller_port:
            return
        if up:
            if self.started:
                self._send_lldp(only=port)
            return
        neighbor = self._neighbor.pop(port.index, None)
        self._latency.pop(port.index, None)
        stale_hosts = [mac for mac, idx in self._local_hosts.items()
                       if idx == port.index]
        for mac in stale_hosts:
            del self._local_hosts[mac]
        # Drop entries out the dead port locally; traffic re-punts as
        # misses while the controller runs the barriered repair.
        self.flows.pop_matching(
            lambda _key, entry: not entry.flood
            and entry.out_port == port.index)
        if self.started:
            self._send_controller(make_port_status(
                self.mac, port.index, up=False,
                neighbor=neighbor if neighbor is not None else ZERO,
                edge=neighbor is None, now=self.sim.now))

    # -- introspection -----------------------------------------------------

    def state_entries(self, now: Optional[float] = None) -> int:
        """Installed flow entries live at *now* — the state the
        controller must program into the fabric."""
        return self.flows.live_count(self.sim.now if now is None else now)

    def repair_events(self) -> List[float]:
        return list(self.repair_times)

    def protocol_counters(self) -> Dict[str, int]:
        c = self.ctl_counters
        return {
            "packet_ins": c.packet_ins,
            "flow_installs": c.flow_installs,
            "flow_removes": c.flow_removes,
            "flow_expired": c.flow_expired,
            "misses": c.misses,
            "frames_buffered": c.frames_buffered,
            "drops_buffer": c.drops_buffer + c.drops_broadcast_buffer,
            "flood_rules": c.flood_rules,
            "repairs_completed": len(self.repair_times),
        }

    def __repr__(self) -> str:
        return (f"<ControllerBridge {self.name} flows={len(self.flows)} "
                f"tree={'yes' if self._tree_ports is not None else 'no'}>")
