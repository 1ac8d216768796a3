"""The end-host stack: ordinary ARP + IPv4 + UDP/ICMP, for N endpoints.

Hosts are deliberately *protocol-unaware*: they run exactly the stack a
Linux box runs (ARP resolution with park / retry / abandon, IP, UDP
sockets, ICMP echo) and never see ARP-Path control traffic — the
paper's transparency claim. All ARP-Path machinery lives in the
bridges.

A :class:`HostPopulation` runs that stack for *N* endpoints behind one
access port without a per-endpoint object graph, and a
:class:`~repro.hosts.host.Host` is a population of one. Endpoint
identity is arithmetic — endpoint *i* owns MAC ``mac_base + i`` and IP
``ip_base + i`` — so classifying a frame is an integer subtraction and a
range check. Mutable state lives in flat maps sized by *activity*, not
by *N*: an endpoint gets a record (its address objects, idents and
counters) on its first send or receive, so a million idle endpoints
cost a handful of integers.

Two deliberate fidelity trades, documented in README "Million-endpoint
fabrics", neither of which a population of one can show:

* **Shared broadcast learning.** Every endpoint behind the port hears
  the same broadcasts, so a binding learned from a broadcast ARP lives
  in one population-wide map; one learned from a unicast ARP lives in
  the endpoint's overlay (a population of one has none: whatever it
  hears, every endpoint heard). An endpoint's binding for an address
  is the later written of the two, as in a lone host's single-entry
  cache. A sender's siblings hear its broadcasts, so the shared map
  learns its own address too: that shows only if it sends to itself.
* **Internal short-circuit.** Frames between two endpoints of one
  population never cross the access link: an engine event delivers them
  after :data:`LOCAL_LATENCY`, so the link tallies never see them
  (exactly as frames between ports of one server never hit the ToR).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.frames import arp as arp_proto
from repro.frames.arp import OP_REQUEST, ArpPacket
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_IPV4,
                                   EthernetFrame)
from repro.frames.icmp import IcmpEcho, make_echo_request
from repro.frames.ipv4 import (DEFAULT_TTL, IPv4Address, IPv4Packet,
                               PROTO_ICMP, PROTO_UDP, ip_for_host)
from repro.frames.mac import _GROUP_BIT, BROADCAST, MAC, mac_for_host
from repro.frames.udp import UdpDatagram
from repro.netsim.engine import Simulator
from repro.netsim.node import Node, Port

#: Seconds a learned ARP binding lives — the one host option a caller
#: sets (``arp_timeout``).
DEFAULT_ARP_TIMEOUT = 60.0
#: Seconds between ARP requests for an unresolved address, and the
#: retries before its parked packets are dropped.
ARP_RETRY_INTERVAL = 1.0
ARP_MAX_RETRIES = 3
#: Packets parked per unresolved address (a real stack's small ARP
#: hold queue); later ones are dropped.
MAX_PENDING_PER_IP = 16
#: Delivery latency between two endpoints of one population — a
#: software-switch hop.
LOCAL_LATENCY = 1e-6

#: UDP receive callback: (src_ip, src_port, payload, packet).
UdpHandler = Callable[[IPv4Address, int, Any, IPv4Packet], None]
#: Ping reply callback: (seq, rtt_seconds).
PingHandler = Callable[[int, float], None]


@dataclass
class HostCounters:
    """Packet counters kept by every endpoint."""

    arp_requests_sent: int = 0
    arp_replies_sent: int = 0
    arp_requests_received: int = 0
    arp_replies_received: int = 0
    ip_sent: int = 0
    ip_received: int = 0
    ip_foreign: int = 0
    udp_received: int = 0
    udp_unbound: int = 0
    echo_requests_received: int = 0
    echo_replies_received: int = 0
    resolution_failures: int = 0


_COUNTERS = tuple(field.name for field in fields(HostCounters))


class _Active:
    """An endpoint that has sent or received: its record.

    Its address objects are built once, here, and it holds a slot per
    :class:`HostCounters` field for what only this endpoint saw.
    Broadcasts every endpoint heard are counted once on the population,
    so they appear here only as corrections (a sender does not hear its
    own sibling broadcast, and a broadcast IP packet is not foreign to
    the endpoint it is addressed to).
    """

    __slots__ = ("mac", "ip", "ip_ident", "ping_ident") + _COUNTERS

    def __init__(self, mac: MAC, ip: IPv4Address):
        self.mac = mac
        self.ip = ip
        self.ip_ident = self.ping_ident = 0
        for name in _COUNTERS:
            setattr(self, name, 0)


def _combine(records: List[_Active], heard: HostCounters,
             times: int) -> HostCounters:
    """*times* × *heard* plus the sums of *records*' counters."""
    return HostCounters(**{
        name: times * getattr(heard, name)
        + sum(getattr(record, name) for record in records)
        for name in _COUNTERS})


class Endpoint:
    """A flyweight handle on one endpoint of a :class:`HostPopulation`.

    Created on demand (never stored), it exposes the host API traffic
    code uses — ``ip``, ``mac``, ``ping``, ``send_udp``, ``bind_udp`` —
    by passing its index to the population.
    """

    __slots__ = ("population", "index")

    def __init__(self, population: "HostPopulation", index: int):
        self.population = population
        self.index = index

    @property
    def name(self) -> str:
        return f"{self.population.name}#{self.index}"

    @property
    def mac(self) -> MAC:
        return self.population.mac_of(self.index)

    @property
    def ip(self) -> IPv4Address:
        return self.population.ip_of(self.index)

    @property
    def counters(self) -> HostCounters:
        return self.population.endpoint_counters(self.index)

    def send_udp(self, dst_ip: IPv4Address, sport: int, dport: int,
                 payload: Any) -> None:
        self.population.send_udp(dst_ip, sport, dport, payload, self.index)

    def bind_udp(self, port: int, handler: UdpHandler) -> None:
        self.population.bind_udp(port, handler, self.index)

    def ping(self, dst_ip: IPv4Address, seq: int = 0,
             payload_size: int = 56,
             on_reply: Optional[PingHandler] = None) -> int:
        return self.population.ping(dst_ip, seq, payload_size, on_reply,
                                    self.index)

    def __repr__(self) -> str:
        return f"<Endpoint {self.name} mac={self.mac} ip={self.ip}>"


class HostPopulation(Node):
    """*size* end hosts sharing one access port (flyweight).

    ``base_index`` is the host-index the population's address block
    starts at (the builder allocates it); endpoint *i* is addressed as
    ``mac_for_host(base_index + i)`` / ``ip_for_host(base_index + i)``
    and named ``f"{name}#{i}"``. Every public call takes the endpoint
    index last, defaulting to 0 — the only endpoint of a ``Host``.
    """

    def __init__(self, sim: Simulator, name: str, size: int,
                 base_index: int,
                 arp_timeout: float = DEFAULT_ARP_TIMEOUT):
        if size < 1:
            raise ValueError(f"population needs at least 1 endpoint, "
                             f"got {size}")
        super().__init__(sim, name)
        self.size = size
        #: ``range(size)``: an endpoint-index test is one ``in``.
        self._indices = range(size)
        self.base_index = base_index
        self.arp_timeout = arp_timeout
        self.port = self.add_port()
        #: Packets dropped from overflowing or abandoned pending queues.
        self.dropped_pending = 0

        # Arithmetic identity: endpoint i <-> mac_base + i / ip_base + i.
        self._mac_base = mac_for_host(base_index)._value
        self._ip_base = ip_for_host(base_index)._value

        # -- flat state, sized by activity and never by population size --
        #: Endpoint index -> its record, made on first send or receive.
        self._active: Dict[int, _Active] = {}
        #: Broadcasts every endpoint heard, counted once: ARP requests,
        #: ARP replies and (as ``ip_foreign``) IPv4 broadcasts.
        self._heard = HostCounters()
        #: ip -> (mac, expires) learned from a broadcast ARP (all heard
        #: it).
        self._shared: Dict[int, Tuple[MAC, float]] = {}
        #: (index, ip) -> (mac, expires, the shared binding it was
        #: written over) learned from a unicast ARP: it is the later
        #: write while that shared binding is still the current one.
        self._overlay: Dict[Tuple[int, int], Tuple[MAC, float, Any]] = {}
        #: (index, ip) -> [parked packets, retries left, retry event].
        self._pending: Dict[Tuple[int, int], List[Any]] = {}
        #: ip -> endpoints with a pending resolution for it (so a
        #: broadcast-learned binding releases them without a scan).
        self._waiters: Dict[int, Set[int]] = {}
        self._udp_handlers: Dict[Tuple[int, int], UdpHandler] = {}
        self._ping_handlers: Dict[Tuple[int, int], PingHandler] = {}
        self._ping_sent_at: Dict[Tuple[int, int, int], float] = {}

    # -- identity ------------------------------------------------------------

    def mac_of(self, index: int) -> MAC:
        """Endpoint *index*'s MAC (arithmetic, no storage)."""
        self._check_index(index)
        return MAC(self._mac_base + index)

    def ip_of(self, index: int) -> IPv4Address:
        """Endpoint *index*'s IPv4 address (arithmetic, no storage)."""
        self._check_index(index)
        return IPv4Address(self._ip_base + index)

    def endpoint(self, index: int) -> Endpoint:
        """A flyweight handle on endpoint *index*."""
        self._check_index(index)
        return Endpoint(self, index)

    def _check_index(self, index: int) -> None:
        if index not in self._indices:
            raise IndexError(f"{self.name}: endpoint index {index} out of "
                             f"range [0, {self.size})")

    def _activate(self, index: int) -> _Active:
        active = _Active(self.mac_of(index), self.ip_of(index))
        self._active[index] = active
        return active

    # -- sending -------------------------------------------------------------

    def send_ip(self, dst_ip: IPv4Address, proto: int, payload: Any,
                ttl: int = DEFAULT_TTL, index: int = 0) -> None:
        """Send an IP packet from endpoint *index*, resolving if needed."""
        active = self._active.get(index) or self._activate(index)
        active.ip_ident = ident = (active.ip_ident + 1) & 0xFFFF
        # Positional: keywords cost a dataclass constructor twice as much.
        packet = IPv4Packet(active.ip, dst_ip, proto, payload, ttl, ident)
        # The binding is the later-written of the shared and the overlay
        # one, and only while it lives.
        key = dst_ip._value
        binding = self._shared.get(key)
        if self._overlay:
            own = self._overlay.get((index, key))
            if own is not None and (binding is None or own[2] is binding):
                binding = own
        if binding is not None and binding[1] > self.sim._now:
            self._transmit_ip(index, active, binding[0], packet)
        else:
            self._resolve(index, active, dst_ip, packet)

    def send_udp(self, dst_ip: IPv4Address, sport: int, dport: int,
                 payload: Any, index: int = 0) -> None:
        """Send a UDP datagram from endpoint *index*."""
        self.send_ip(dst_ip, PROTO_UDP, UdpDatagram(sport, dport, payload),
                     DEFAULT_TTL, index)

    def bind_udp(self, port: int, handler: UdpHandler,
                 index: int = 0) -> None:
        """Call *handler* for datagrams arriving on endpoint *index*'s
        UDP *port*."""
        self._check_index(index)
        key = (index, port)
        if key in self._udp_handlers:
            raise ValueError(f"{self.name}#{index}: UDP port {port} "
                             f"already bound")
        self._udp_handlers[key] = handler

    def ping(self, dst_ip: IPv4Address, seq: int = 0,
             payload_size: int = 56,
             on_reply: Optional[PingHandler] = None,
             index: int = 0) -> int:
        """Send one ICMP echo request from endpoint *index*; returns the
        ident used. *on_reply* fires with ``(seq, rtt)`` when the
        matching reply arrives."""
        active = self._active.get(index) or self._activate(index)
        active.ping_ident = ident = (active.ping_ident + 1) & 0xFFFF
        if on_reply is not None:
            self._ping_handlers[(index, ident)] = on_reply
        self._ping_sent_at[(index, ident, seq)] = self.sim._now
        echo = make_echo_request(ident=ident, seq=seq,
                                 payload=b"\x00" * payload_size)
        self.send_ip(dst_ip, PROTO_ICMP, echo, DEFAULT_TTL, index)
        return ident

    def gratuitous_arp(self, index: int = 0) -> None:
        """Broadcast a gratuitous ARP announcing endpoint *index*."""
        active = self._active.get(index) or self._activate(index)
        self._broadcast_arp(
            index, active, arp_proto.make_gratuitous(active.mac, active.ip))

    def announce_endpoints(self, indices: Optional[List[int]] = None,
                           spacing: float = 0.0, start: float = 0.0) -> int:
        """Gratuitous-ARP a batch of endpoints via one ``schedule_bulk``.

        The population counterpart of :meth:`Network.announce_hosts`:
        *indices* (default: every endpoint) announce in index order,
        *spacing* apart, as one bulk heap append instead of N pushes.
        Returns the number of announcements scheduled.
        """
        if indices is None:
            indices = range(self.size)
        specs = [(start + offset * spacing, self.gratuitous_arp, index)
                 for offset, index in enumerate(indices)]
        self.sim.schedule_bulk(specs)
        return len(specs)

    def _transmit_ip(self, index: int, active: _Active, dst_mac: MAC,
                     packet: IPv4Packet) -> None:
        active.ip_sent += 1
        sibling = dst_mac._value - self._mac_base
        if sibling in self._indices and sibling != index:
            self.sim.schedule(LOCAL_LATENCY, self._receive_ip, sibling,
                              packet)
            return
        # Straight to the link, as Node.flood hands a frame: a port
        # without carrier discards it, as in Port.send.
        frame = EthernetFrame(dst_mac, active.mac, ETHERTYPE_IPV4, packet)
        port = self.port
        link = port.link
        if link is not None and link.up:
            link.transmit(port, frame)

    # -- ARP resolution ------------------------------------------------------

    def _resolve(self, index: int, active: _Active, dst_ip: IPv4Address,
                 packet: IPv4Packet) -> None:
        """Park *packet* until *dst_ip* resolves; the first one parked
        sends the ARP request and arms the retry."""
        key = dst_ip._value
        pending = self._pending.get((index, key))
        if pending is not None:
            if len(pending[0]) >= MAX_PENDING_PER_IP:
                self.dropped_pending += 1
            else:
                pending[0].append(packet)
            return
        # Nothing live was found: forget what expired.
        now = self.sim._now
        shared = self._shared.get(key)
        if shared is not None and shared[1] <= now:
            del self._shared[key]
        own = self._overlay.get((index, key))
        if own is not None and own[1] <= now:
            del self._overlay[(index, key)]
        pending = self._pending[(index, key)] = [[packet], ARP_MAX_RETRIES,
                                                 None]
        self._waiters.setdefault(key, set()).add(index)
        self._broadcast_arp(
            index, active, arp_proto.make_request(active.mac, active.ip,
                                                  dst_ip))
        pending[2] = self.sim.schedule(ARP_RETRY_INTERVAL, self._arp_retry,
                                       index, key)

    def _broadcast_arp(self, index: int, active: _Active,
                       packet: ArpPacket) -> None:
        """Endpoint *index* broadcasts an ARP request (gratuitous ones
        included)."""
        active.arp_requests_sent += 1
        self.port.send(EthernetFrame(dst=BROADCAST, src=active.mac,
                                     ethertype=ETHERTYPE_ARP,
                                     payload=packet))
        if self.size > 1:
            # Siblings behind the same port hear it too (a bridge never
            # floods a frame back out its ingress port, so the only path
            # to them is this internal event).
            self.sim.schedule(LOCAL_LATENCY, self._hear_arp, packet, None,
                              index)

    def _arp_retry(self, index: int, key: int) -> None:
        pending = self._pending[(index, key)]
        if pending[1] <= 0:
            del self._pending[(index, key)]
            self._drop_waiter(key, index)
            dropped = len(pending[0])
            self.dropped_pending += dropped
            self._active[index].resolution_failures += dropped
            return
        pending[1] -= 1
        active = self._active[index]
        self._broadcast_arp(
            index, active, arp_proto.make_request(active.mac, active.ip,
                                                  IPv4Address(key)))
        pending[2] = self.sim.schedule(ARP_RETRY_INTERVAL, self._arp_retry,
                                       index, key)

    def _drop_waiter(self, key: int, index: int) -> None:
        waiters = self._waiters[key]
        waiters.discard(index)
        if not waiters:
            del self._waiters[key]

    def _release(self, index: int, key: int, mac: MAC) -> None:
        """Endpoint *index* resolved *key* to *mac*: cancel the retry and
        send what was parked."""
        packets, _retries, retry = self._pending.pop((index, key))
        retry.cancel()
        self._drop_waiter(key, index)
        active = self._active[index]
        for packet in packets:
            self._transmit_ip(index, active, mac, packet)

    # -- receiving -----------------------------------------------------------

    def handle_frame(self, port: Port, frame: EthernetFrame) -> None:
        # Classified on the addresses' integers: never our own frame
        # echoed back; a group address (broadcast included) is heard by
        # every endpoint, a unicast one by the endpoint it names.
        if frame.src._value - self._mac_base in self._indices:
            return
        dst = frame.dst._value
        if dst & _GROUP_BIT:
            index = None
        else:
            index = dst - self._mac_base
            if index not in self._indices:
                return  # unknown-unicast flood for somebody else
        payload = frame.payload
        if frame.ethertype == ETHERTYPE_IPV4 \
                and isinstance(payload, IPv4Packet):
            self._receive_ip(index, payload)
        elif frame.ethertype == ETHERTYPE_ARP \
                and isinstance(payload, ArpPacket):
            self._hear_arp(payload, index)
        # Other ethertypes (BPDU, ARP-Path control) are ignored: hosts
        # are unmodified.

    def _hear_arp(self, pkt: ArpPacket, index: Optional[int],
                  sender: Optional[int] = None) -> None:
        """An ARP packet for endpoint *index*, or — *index* None — a
        broadcast every endpoint but *sender* hears at once.

        O(1 + waiters released), never O(size).
        """
        spa = pkt.spa._value
        if spa:
            # Learn the sender's binding, as real stacks do from any ARP
            # they hear, and release what waited for it: in the shared
            # map when every endpoint heard it (a broadcast, or any ARP
            # to a population of one). One born expired (``arp_timeout
            # <= 0``) is not kept, drops the older one, releases nothing.
            now = self.sim._now
            expires = now + self.arp_timeout
            if index is None or self.size == 1:
                if expires > now:
                    self._shared[spa] = (pkt.sha, expires)
                    waiters = self._waiters.get(spa)
                    if waiters:
                        for waiter in sorted(waiters):
                            if waiter != sender:
                                self._release(waiter, spa, pkt.sha)
                else:
                    self._shared.pop(spa, None)
            elif expires > now:
                self._overlay[(index, spa)] = (pkt.sha, expires,
                                               self._shared.get(spa))
                if (index, spa) in self._pending:
                    self._release(index, spa, pkt.sha)
            else:
                self._overlay.pop((index, spa), None)
        request = pkt.op == OP_REQUEST
        if index is None:
            if request:
                self._heard.arp_requests_received += 1
                if sender is not None:
                    self._active[sender].arp_requests_received -= 1
            else:
                self._heard.arp_replies_received += 1
        else:
            active = self._active.get(index) or self._activate(index)
            if request:
                active.arp_requests_received += 1
            else:
                active.arp_replies_received += 1
        if request:
            tpa = pkt.tpa._value
            target = tpa - self._ip_base
            if target in self._indices and index in (None, target) \
                    and target != sender and spa != tpa:
                self._send_arp_reply(target, pkt)

    def _send_arp_reply(self, index: int, request: ArpPacket) -> None:
        active = self._active.get(index) or self._activate(index)
        reply = arp_proto.make_reply(active.mac, active.ip,
                                     request.sha, request.spa)
        active.arp_replies_sent += 1
        sibling = request.sha._value - self._mac_base
        if sibling in self._indices and sibling != index:
            self.sim.schedule(LOCAL_LATENCY, self._hear_arp, reply, sibling)
            return
        self.port.send(EthernetFrame(dst=request.sha, src=active.mac,
                                     ethertype=ETHERTYPE_ARP,
                                     payload=reply))

    def _receive_ip(self, index: Optional[int], packet: IPv4Packet) -> None:
        """An IP packet for endpoint *index*, or — *index* None — a
        broadcast: foreign to every endpoint but its destination's."""
        if index is None:
            self._heard.ip_foreign += 1
            index = packet.dst._value - self._ip_base
            if index not in self._indices:
                return
            active = self._active.get(index) or self._activate(index)
            active.ip_foreign -= 1
        else:
            active = self._active.get(index) or self._activate(index)
            if packet.dst._value - self._ip_base != index:
                active.ip_foreign += 1
                return
        active.ip_received += 1
        body = packet.payload
        if packet.proto == PROTO_UDP and isinstance(body, UdpDatagram):
            handler = self._udp_handlers.get((index, body.dport))
            if handler is None:
                active.udp_unbound += 1
                return
            active.udp_received += 1
            handler(packet.src, body.sport, body.payload, packet)
        elif packet.proto == PROTO_ICMP and isinstance(body, IcmpEcho):
            self._handle_icmp(index, active, packet)

    def _handle_icmp(self, index: int, active: _Active,
                     packet: IPv4Packet) -> None:
        echo: IcmpEcho = packet.payload
        if echo.is_request:
            active.echo_requests_received += 1
            self.send_ip(packet.src, PROTO_ICMP, echo.reply(), DEFAULT_TTL,
                         index)
            return
        active.echo_replies_received += 1
        sent_at = self._ping_sent_at.pop((index, echo.ident, echo.seq), None)
        handler = self._ping_handlers.get((index, echo.ident))
        if sent_at is not None and handler is not None:
            handler(echo.seq, self.sim._now - sent_at)

    # -- accounting ----------------------------------------------------------

    @property
    def counters(self) -> HostCounters:
        """Totals over every endpoint (a fresh object on each read)."""
        return _combine(list(self._active.values()),
                        self._heard, self.size)

    def endpoint_counters(self, index: int) -> HostCounters:
        """Endpoint *index*'s counters: its record plus the broadcasts
        every endpoint heard."""
        self._check_index(index)
        active = self._active.get(index)
        return _combine([] if active is None else [active],
                        self._heard, 1)

    def state_entries(self) -> int:
        """Live size of the population's mutable state (all flat maps).

        The number the flyweight claim stands on: proportional to
        *activity* (endpoints active, bindings learned, sockets bound,
        resolutions in flight), independent of ``size``.
        """
        return sum(len(store) for store in (
            self._active, self._shared, self._overlay, self._pending,
            self._waiters, self._udp_handlers, self._ping_handlers,
            self._ping_sent_at))

    def __repr__(self) -> str:
        return (f"<HostPopulation {self.name} size={self.size} "
                f"base={self.base_index}>")
