"""Nodes and ports.

A :class:`Node` is anything with Ethernet ports: a bridge or an end
host. Ports attach to :class:`repro.netsim.link.Link` objects; a node
receives frames through :meth:`Node.handle_frame` and reacts to carrier
changes through :meth:`Node.link_state_changed`.

A frame is never mutated once sent (:mod:`repro.frames.ethernet`), so
:meth:`Port.send` and :meth:`Node.flood` hand the same object to every
link: flooding a frame out of *n* ports costs zero allocations.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.frames.ethernet import EthernetFrame
from repro.netsim.engine import Simulator

if TYPE_CHECKING:
    from repro.netsim.link import Link


class Port:
    """One Ethernet port of a node.

    Ports are created through :meth:`Node.add_port` and wired to links
    by the link constructor; sending through an unattached or downed
    port silently discards the frame, like a NIC with no carrier.
    """

    __slots__ = ("node", "index", "link")

    def __init__(self, node: "Node", index: int):
        self.node = node
        self.index = index
        self.link: Optional["Link"] = None

    @property
    def name(self) -> str:
        return f"{self.node.name}.p{self.index}"

    @property
    def is_attached(self) -> bool:
        return self.link is not None

    @property
    def is_up(self) -> bool:
        """True when attached to a link that currently has carrier."""
        return self.link is not None and self.link.up

    @property
    def peer(self) -> Optional["Port"]:
        """The port at the other end of the attached link, if any."""
        if self.link is None:
            return None
        return self.link.other(self)

    def send(self, frame: EthernetFrame) -> None:
        """Transmit a frame out of this port.

        The frame object itself goes on the wire: the caller may still
        re-send the same object out of several ports (flooding) and each
        copy races through the network independently, because a frame
        is never mutated once sent.
        """
        link = self.link
        if link is None or not link.up:
            return
        link.transmit(self, frame)

    def __repr__(self) -> str:
        return f"<Port {self.name}>"


class Node:
    """Base class for bridges and hosts."""

    #: True on replica nodes owned by another shard in a sharded run
    #: (:mod:`repro.netsim.shard`): ghosts are built for topology
    #: bookkeeping but never started, so they schedule nothing.
    shard_ghost = False

    #: True on nodes that belong to an out-of-band control plane (the
    #: centralized controller): their links carry no fabric traffic and
    #: are excluded from topology oracles (:func:`repro.metrics.paths
    #: .min_latency_path`, :func:`repro.testing.graph_of`), fabric link
    #: listings and churn link flaps.
    out_of_band = False

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        self.started = False
        #: The attached ports, rebuilt on attach/detach, not per flood
        #: (:meth:`refresh_attached_ports`) — treat it as read-only.
        self.attached_ports: List[Port] = []

    def add_port(self) -> Port:
        """Create and return a new (unattached) port."""
        port = Port(self, len(self.ports))
        self.ports.append(port)
        return port

    def free_port(self) -> Port:
        """An existing unattached port, or a freshly created one."""
        for port in self.ports:
            if not port.is_attached:
                return port
        return self.add_port()

    def refresh_attached_ports(self) -> None:
        """Rebuild :attr:`attached_ports` (called on attach/detach)."""
        self.attached_ports = [port for port in self.ports
                               if port.link is not None]

    def start(self) -> None:
        """Hook called once after the topology is wired.

        Subclasses start periodic processes (hellos, BPDUs) here.
        """
        self.started = True

    def handle_frame(self, port: Port, frame: EthernetFrame) -> None:
        """Process a frame arriving at *port*; links call this on every
        delivery. Subclasses must implement."""
        raise NotImplementedError

    def link_state_changed(self, port: Port, up: bool) -> None:
        """Hook invoked when the link at *port* gains or loses carrier."""

    def flood(self, frame: EthernetFrame, exclude: Optional[Port] = None) -> int:
        """Send *frame* out of every attached port except *exclude*.

        Returns the number of ports the frame was sent on; one without
        carrier counts and discards, as in :meth:`Port.send`. All copies
        share the one frame object, handed to each up link directly.
        """
        count = 0
        for port in self.attached_ports:
            if port is exclude:
                continue
            count += 1
            link = port.link
            if link.up:
                link.transmit(port, frame)
        return count

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ports={len(self.ports)}>"
