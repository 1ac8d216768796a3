"""Control-channel messages of the centralized controller family.

One message type carries the whole southbound/northbound protocol
(LLDP discovery, link/host reports, packet-in, flow-mod, barriers and
flood rules), distinguished by an ``op`` code — the OpenFlow shape
squeezed into a single fixed layout plus a variable port list, so one
struct codec (:mod:`repro.switching.controller.codec`) serialises every
message losslessly.

All messages ride ethertype 0x88B7
(:data:`repro.frames.ethernet.ETHERTYPE_CONTROLLER`). LLDP probes are
link-local multicast; everything else is unicast on the dedicated
controller star links.
"""

from __future__ import annotations

from typing import Tuple

from repro.frames.mac import MAC, ZERO

#: Link-local multicast address LLDP probes are sent to (nearest-bridge
#: block, never relayed).
LLDP_MULTICAST = MAC("01:80:c2:00:00:0e")

#: Sentinel for "no port" in the ``port`` field.
NO_PORT = -1

OP_LLDP = 1            # bridge -> neighbor bridge: who am I, which port
OP_SWITCH_ENTER = 2    # bridge -> controller: I exist, here is my MAC
OP_LINK_REPORT = 3     # bridge -> controller: LLDP-learnt adjacency
OP_PORT_STATUS = 4     # bridge -> controller: carrier change on a port
OP_HOST_REPORT = 5     # bridge -> controller: host seen on an edge port
OP_PACKET_IN = 6       # bridge -> controller: table miss for (src, dst)
OP_FLOW_INSTALL = 7    # controller -> bridge: install a flow entry
OP_FLOW_REMOVE = 8     # controller -> bridge: remove a flow entry (acked)
OP_REMOVE_ACK = 9      # bridge -> controller: barrier ack for a remove
OP_FLOW_EXPIRED = 10   # bridge -> controller: entry aged out
OP_FLOOD_RULE = 11     # controller -> bridge: broadcast-tree port set

_OP_NAMES = {
    OP_LLDP: "LLDP",
    OP_SWITCH_ENTER: "SWITCH_ENTER",
    OP_LINK_REPORT: "LINK_REPORT",
    OP_PORT_STATUS: "PORT_STATUS",
    OP_HOST_REPORT: "HOST_REPORT",
    OP_PACKET_IN: "PACKET_IN",
    OP_FLOW_INSTALL: "FLOW_INSTALL",
    OP_FLOW_REMOVE: "FLOW_REMOVE",
    OP_REMOVE_ACK: "REMOVE_ACK",
    OP_FLOW_EXPIRED: "FLOW_EXPIRED",
    OP_FLOOD_RULE: "FLOOD_RULE",
}

#: FLOW_INSTALL flag bits.
FLAG_UP = 0x01            # PORT_STATUS: carrier present
FLAG_FLOOD = 0x02         # FLOW_INSTALL: flood verdict (unknown dst)
FLAG_RECORD_REPAIR = 0x04  # FLOW_INSTALL: record repair completion
FLAG_EDGE_PORT = 0x08     # PORT_STATUS: the port had no LLDP neighbor

#: Fixed part: op(1) + origin(6) + src(6) + dst(6) + port(2) + seq(4)
#: + time(8) + flags(1) + nports(1).
FIXED_WIRE_SIZE = 35


class ControllerControl:
    """One controller-channel message (immutable ``__slots__`` type).

    ``origin``
        The node that generated the message (bridge or controller MAC).
    ``src`` / ``dst``
        The end-host flow key the message is about (``ZERO`` when
        unused; ``src`` doubles as the neighbor bridge in LINK_REPORT).
    ``port``
        A port index at the *origin* (``NO_PORT`` when unused).
    ``seq``
        Correlation id: barrier id for removes/acks, rule version for
        flood rules.
    ``time``
        A timestamp riding the message: LLDP send time (latency
        measurement), failure-detection time on repair installs.
    ``ports``
        Variable port-index list: the flood-tree ports of a FLOOD_RULE.
    """

    __slots__ = ("op", "origin", "src", "dst", "port", "seq", "time",
                 "flags", "ports")

    def __init__(self, op: int, origin: MAC, src: MAC = ZERO,
                 dst: MAC = ZERO, port: int = NO_PORT, seq: int = 0,
                 time: float = 0.0, flags: int = 0,
                 ports: Tuple[int, ...] = ()):
        if op not in _OP_NAMES:
            raise ValueError(f"unknown controller op {op}")
        set_field = object.__setattr__
        set_field(self, "op", op)
        set_field(self, "origin", origin)
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "port", port)
        set_field(self, "seq", seq)
        set_field(self, "time", time)
        set_field(self, "flags", flags)
        set_field(self, "ports", tuple(ports))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"ControllerControl is immutable (tried to set {name!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ControllerControl):
            return NotImplemented
        return (self.op == other.op and self.origin == other.origin
                and self.src == other.src and self.dst == other.dst
                and self.port == other.port and self.seq == other.seq
                and self.time == other.time and self.flags == other.flags
                and self.ports == other.ports)

    def __hash__(self) -> int:
        return hash((self.op, self.origin, self.src, self.dst, self.port,
                     self.seq, self.time, self.flags, self.ports))

    @property
    def op_name(self) -> str:
        return _OP_NAMES[self.op]

    @property
    def wire_size(self) -> int:
        return FIXED_WIRE_SIZE + 2 * len(self.ports)

    def __repr__(self) -> str:
        return (f"ControllerControl(op={self.op_name}, origin={self.origin}, "
                f"src={self.src}, dst={self.dst}, port={self.port}, "
                f"seq={self.seq}, time={self.time}, flags={self.flags:#x}, "
                f"ports={self.ports})")


# -- constructors ------------------------------------------------------------


def make_lldp(bridge_mac: MAC, port_index: int,
              now: float) -> ControllerControl:
    """A link-local LLDP probe announcing *bridge_mac* on a port."""
    return ControllerControl(op=OP_LLDP, origin=bridge_mac, port=port_index,
                             time=now)


def make_switch_enter(bridge_mac: MAC) -> ControllerControl:
    return ControllerControl(op=OP_SWITCH_ENTER, origin=bridge_mac)


def make_link_report(bridge_mac: MAC, neighbor: MAC, port_index: int,
                     latency: float) -> ControllerControl:
    return ControllerControl(op=OP_LINK_REPORT, origin=bridge_mac,
                             src=neighbor, port=port_index, time=latency)


def make_port_status(bridge_mac: MAC, port_index: int, up: bool,
                     neighbor: MAC, edge: bool,
                     now: float) -> ControllerControl:
    flags = (FLAG_UP if up else 0) | (FLAG_EDGE_PORT if edge else 0)
    return ControllerControl(op=OP_PORT_STATUS, origin=bridge_mac,
                             src=neighbor, port=port_index, flags=flags,
                             time=now)


def make_host_report(bridge_mac: MAC, host: MAC,
                     port_index: int) -> ControllerControl:
    return ControllerControl(op=OP_HOST_REPORT, origin=bridge_mac, src=host,
                             port=port_index)


def make_packet_in(bridge_mac: MAC, src: MAC, dst: MAC,
                   port_index: int) -> ControllerControl:
    return ControllerControl(op=OP_PACKET_IN, origin=bridge_mac, src=src,
                             dst=dst, port=port_index)


def make_flow_install(controller_mac: MAC, src: MAC, dst: MAC,
                      out_port: int, flags: int = 0,
                      detect_time: float = 0.0) -> ControllerControl:
    return ControllerControl(op=OP_FLOW_INSTALL, origin=controller_mac,
                             src=src, dst=dst, port=out_port, flags=flags,
                             time=detect_time)


def make_flow_remove(controller_mac: MAC, src: MAC, dst: MAC,
                     barrier: int) -> ControllerControl:
    return ControllerControl(op=OP_FLOW_REMOVE, origin=controller_mac,
                             src=src, dst=dst, seq=barrier)


def make_remove_ack(bridge_mac: MAC, barrier: int) -> ControllerControl:
    return ControllerControl(op=OP_REMOVE_ACK, origin=bridge_mac,
                             seq=barrier)


def make_flow_expired(bridge_mac: MAC, src: MAC,
                      dst: MAC) -> ControllerControl:
    return ControllerControl(op=OP_FLOW_EXPIRED, origin=bridge_mac, src=src,
                             dst=dst)


def make_flood_rule(controller_mac: MAC, version: int,
                    tree_ports: Tuple[int, ...]) -> ControllerControl:
    return ControllerControl(op=OP_FLOOD_RULE, origin=controller_mac,
                             seq=version, ports=tree_ports)
