"""Nodes and ports.

A :class:`Node` is anything with Ethernet ports: a bridge or an end
host. Ports attach to :class:`repro.netsim.link.Link` objects; a node
receives frames through :meth:`Node.deliver` and reacts to carrier
changes through :meth:`Node.link_state_changed`.

Frame fan-out is copy-on-write (PR 5): :meth:`Port.send` does **not**
clone — it marks the frame shared and hands the same object to the
link, so flooding a frame out of *n* ports costs zero allocations. The
one per-copy mutation in the simulator, hop recording under
``trace_hops``, takes a lazy private clone in :meth:`Node.deliver`
before it appends, which keeps per-copy traces byte-identical to the
old eager-clone fan-out.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.frames.ethernet import EthernetFrame
from repro.netsim.engine import Simulator
from repro.netsim.errors import TopologyError

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

        The frame object itself goes on the wire, marked shared
        (copy-on-write): the caller may still re-send the same object
        out of several ports (flooding) and each copy races through the
        network independently, because in-flight frames are immutable —
        the only mutation, hop tracing, clones lazily at delivery.
        """
        link = self.link
        if link is None or not link.up:
            return
        frame._shared = True
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
        self._attached_cache: Optional[List[Port]] = None
        #: trace_hops is fixed at Simulator construction; cached here so
        #: the per-delivery check is one attribute load, not two.
        self._trace_hops = sim.trace_hops

    def add_port(self) -> Port:
        """Create and return a new (unattached) port."""
        port = Port(self, len(self.ports))
        self.ports.append(port)
        self._attached_cache = None
        return port

    def add_ports(self, count: int) -> List[Port]:
        """Create *count* ports at once."""
        return [self.add_port() for _ in range(count)]

    def free_port(self) -> Port:
        """An existing unattached port, or a freshly created one."""
        for port in self.ports:
            if not port.is_attached:
                return port
        return self.add_port()

    @property
    def attached_ports(self) -> List[Port]:
        """The node's attached ports, cached.

        Attachment changes only when a link is constructed or a host is
        unplugged, so the list is rebuilt lazily after
        :meth:`invalidate_port_cache` instead of on every flood. The
        cached list is returned as-is — treat it as read-only.
        """
        cached = self._attached_cache
        if cached is None:
            cached = [port for port in self.ports if port.link is not None]
            self._attached_cache = cached
        return cached

    def invalidate_port_cache(self) -> None:
        """Drop the attached-port cache (called on attach/detach)."""
        self._attached_cache = None

    def start(self) -> None:
        """Hook called once after the topology is wired.

        Subclasses start periodic processes (hellos, BPDUs) here.
        """
        self.started = True

    def deliver(self, port: Port, frame: EthernetFrame) -> None:
        """Entry point for frames arriving at *port*.

        Links call this only when hop tracing is on (it owns the
        copy-on-write clone); with tracing off they dispatch straight
        to :meth:`handle_frame`, which is behaviourally identical and
        one call cheaper. Anything wrapping ``deliver`` per instance
        (the PathObserver) requires ``trace_hops=True``, so the fast
        path never bypasses a wrapper.
        """
        if self._trace_hops:
            if frame._shared:
                # Copy-on-write: the object may be in flight on other
                # links; take a private copy before mutating its trace.
                frame = frame.clone()
            frame.record_hop(self.name, port.index, self.sim.now)
        self.handle_frame(port, frame)

    def handle_frame(self, port: Port, frame: EthernetFrame) -> None:
        """Process a received frame. Subclasses must implement."""
        raise NotImplementedError

    def link_state_changed(self, port: Port, up: bool) -> None:
        """Hook invoked when the link at *port* gains or loses carrier."""

    def flood(self, frame: EthernetFrame, exclude: Optional[Port] = None) -> int:
        """Send *frame* out of every attached port except *exclude*.

        Returns the number of ports the frame was sent on; one without
        carrier counts and discards, as in :meth:`Port.send`. All copies
        share the one frame object (copy-on-write fan-out), marked
        shared once and handed to each up link directly.
        """
        frame._shared = True
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
