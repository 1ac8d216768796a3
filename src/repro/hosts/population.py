"""Flyweight host populations: N endpoints behind one access port.

A :class:`HostPopulation` emulates *N* end hosts attached to a single
bridge port without allocating a per-host object graph. Endpoint
identity is pure arithmetic — endpoint *i* owns
``mac_for_host(base_index + i)`` / ``ip_for_host(base_index + i)``, so
the reverse MAC/IP → endpoint mapping is an integer subtraction and a
range check: zero bytes of per-endpoint storage, O(1) on every frame
arriving at the shared port. All mutable state is **array-backed**:
flat dicts keyed by the dense endpoint index (ARP-cache overlays,
per-endpoint counters, pending resolutions), sized by *activity*, not
by *N* — a population of a million idle endpoints costs a handful of
integers.

The protocol behaviour per endpoint is the :class:`~repro.hosts.host.
Host` stack verbatim (ARP resolution with park/retry/abandon, IPv4,
UDP sockets, ICMP echo); ``tests/test_population.py`` pins the
equivalence against real hosts on a 2-bridge line. Two deliberate
fidelity trades, documented in README "Scale":

* **Shared broadcast learning.** Every endpoint behind the port hears
  the same broadcasts, so bindings learned from broadcast ARP live in
  one population-wide map (``ip → (mac, expires)``); only bindings
  learned from *unicast* ARP are tracked per endpoint. A real host
  that missed a broadcast (it did not exist yet) cannot diverge here
  because endpoints share one attach instant.
* **Internal short-circuit.** Endpoint-to-endpoint frames inside one
  population never cross the access link: they are delivered after
  ``local_latency`` by an engine event, and therefore do not appear in
  the link tracer (exactly as frames between ports of one physical
  server never hit the ToR).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.frames import arp as arp_proto
from repro.frames.arp import ArpPacket
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_IPV4,
                                   EthernetFrame)
from repro.frames.icmp import IcmpEcho, make_echo_request
from repro.frames.ipv4 import (DEFAULT_TTL, IPv4Address, IPv4Packet,
                               PROTO_ICMP, PROTO_UDP, ip_for_host)
from repro.frames.mac import BROADCAST, MAC, mac_for_host
from repro.frames.udp import UdpDatagram
from repro.hosts.arpcache import (DEFAULT_ARP_TIMEOUT, DEFAULT_MAX_RETRIES,
                                  DEFAULT_RETRY_INTERVAL)
from repro.hosts.host import HostCounters, PingHandler, UdpHandler
from repro.netsim.engine import Simulator
from repro.netsim.node import Node, Port

#: Delivery latency for frames that never leave the population (two
#: endpoints behind the same port) — a software-switch hop.
DEFAULT_LOCAL_LATENCY = 1e-6


class Endpoint:
    """A flyweight handle on one endpoint of a :class:`HostPopulation`.

    Created on demand (never stored), it exposes the :class:`~repro.
    hosts.host.Host` API surface traffic code uses — ``ip``, ``mac``,
    ``ping``, ``send_udp``, ``bind_udp`` — by delegating to the
    population with the endpoint index.
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

    def send_ip(self, dst_ip: IPv4Address, proto: int, payload: Any,
                ttl: int = DEFAULT_TTL) -> None:
        self.population.send_ip(self.index, dst_ip, proto, payload, ttl=ttl)

    def send_udp(self, dst_ip: IPv4Address, sport: int, dport: int,
                 payload: Any) -> None:
        self.population.send_udp(self.index, dst_ip, sport, dport, payload)

    def bind_udp(self, port: int, handler: UdpHandler) -> None:
        self.population.bind_udp(self.index, port, handler)

    def unbind_udp(self, port: int) -> None:
        self.population.unbind_udp(self.index, port)

    def ping(self, dst_ip: IPv4Address, seq: int = 0,
             payload_size: int = 56,
             on_reply: Optional[PingHandler] = None) -> int:
        return self.population.ping(self.index, dst_ip, seq=seq,
                                    payload_size=payload_size,
                                    on_reply=on_reply)

    def gratuitous_arp(self) -> None:
        self.population.gratuitous_arp(self.index)

    def __repr__(self) -> str:
        return f"<Endpoint {self.name} mac={self.mac} ip={self.ip}>"


class HostPopulation(Node):
    """*size* emulated hosts sharing one access port (flyweight).

    ``base_index`` is the host-index the population's address block
    starts at (the builder allocates it); endpoint *i* is addressed as
    ``mac_for_host(base_index + i)`` / ``ip_for_host(base_index + i)``
    and named ``f"{name}#{i}"``.
    """

    def __init__(self, sim: Simulator, name: str, size: int,
                 base_index: int,
                 arp_timeout: float = DEFAULT_ARP_TIMEOUT,
                 arp_retry_interval: float = DEFAULT_RETRY_INTERVAL,
                 arp_max_retries: int = DEFAULT_MAX_RETRIES,
                 max_pending_per_ip: int = 16,
                 local_latency: float = DEFAULT_LOCAL_LATENCY):
        if size < 1:
            raise ValueError(f"population needs at least 1 endpoint, "
                             f"got {size}")
        super().__init__(sim, name)
        self.size = size
        self.base_index = base_index
        self.arp_timeout = arp_timeout
        self.arp_retry_interval = arp_retry_interval
        self.arp_max_retries = arp_max_retries
        self.max_pending_per_ip = max_pending_per_ip
        self.local_latency = local_latency
        self.port = self.add_port()
        #: Population-wide totals (sum over endpoints, kept inline so
        #: experiments read delivered payloads in O(1)).
        self.counters = HostCounters()
        #: Packets dropped from overflowing pending queues (mirrors
        #: ``ArpCache.dropped_pending``).
        self.dropped_pending = 0

        # Arithmetic identity: endpoint i <-> mac_base + i / ip_base + i.
        self._mac_base = mac_for_host(base_index).value
        self._ip_base = int(ip_for_host(base_index))

        # -- array-backed hot state (flat maps keyed by endpoint index;
        #    sized by activity, never by population size) --------------
        #: Bindings learned from broadcast ARP, shared by construction
        #: (every endpoint hears every broadcast on the port).
        self._shared_arp: Dict[int, Tuple[MAC, float]] = {}
        #: Bindings learned from unicast ARP: (idx, ip) -> (mac, expires).
        self._arp_overlay: Dict[Tuple[int, int], Tuple[MAC, float]] = {}
        #: (idx, ip) -> [parked packets, retries_left, retry_event].
        self._pending: Dict[Tuple[int, int], List[Any]] = {}
        #: ip -> endpoint indices with a pending resolution for it (so a
        #: broadcast-learned binding flushes waiters without scanning).
        self._pending_waiters: Dict[int, Set[int]] = {}
        # Sparse per-endpoint counters (only touched endpoints appear).
        self._arp_requests_sent: Dict[int, int] = {}
        self._arp_replies_sent: Dict[int, int] = {}
        self._unicast_requests: Dict[int, int] = {}
        self._unicast_replies: Dict[int, int] = {}
        self._ip_sent: Dict[int, int] = {}
        self._ip_received: Dict[int, int] = {}
        self._ip_foreign_unicast: Dict[int, int] = {}
        self._udp_received: Dict[int, int] = {}
        self._udp_unbound: Dict[int, int] = {}
        self._echo_requests: Dict[int, int] = {}
        self._echo_replies: Dict[int, int] = {}
        self._resolution_failures: Dict[int, int] = {}
        # Broadcast bases: every endpoint hears every broadcast, so the
        # per-endpoint received counts derive from population-wide tallies
        # minus the endpoint's own transmissions (a host never hears its
        # own frame) — O(1) per broadcast instead of O(N).
        self._bcast_requests_heard = 0
        self._bcast_replies_heard = 0
        self._bcast_ip_heard = 0
        self._own_bcast_requests: Dict[int, int] = {}
        self._bcast_ip_for: Dict[int, int] = {}
        # Socket / ping bookkeeping, keyed (idx, ...).
        self._udp_handlers: Dict[Tuple[int, int], UdpHandler] = {}
        self._ping_handlers: Dict[Tuple[int, int], PingHandler] = {}
        self._ping_sent_at: Dict[Tuple[int, int, int], float] = {}
        self._ping_ident: Dict[int, int] = {}
        self._ip_ident: Dict[int, int] = {}

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
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}: endpoint index {index} out of "
                             f"range [0, {self.size})")

    def _index_of_mac(self, value: int) -> Optional[int]:
        offset = value - self._mac_base
        return offset if 0 <= offset < self.size else None

    def _index_of_ip(self, value: int) -> Optional[int]:
        offset = value - self._ip_base
        return offset if 0 <= offset < self.size else None

    # -- sending -------------------------------------------------------------

    def send_ip(self, index: int, dst_ip: IPv4Address, proto: int,
                payload: Any, ttl: int = DEFAULT_TTL) -> None:
        """Send an IP packet from endpoint *index*, resolving if needed."""
        ident = (self._ip_ident.get(index, 0) + 1) & 0xFFFF
        self._ip_ident[index] = ident
        packet = IPv4Packet(src=self.ip_of(index), dst=dst_ip, proto=proto,
                            payload=payload, ttl=ttl, ident=ident)
        mac = self._lookup_arp(index, int(dst_ip))
        if mac is not None:
            self._transmit_ip(index, mac, packet)
            return
        self._resolve_and_send(index, dst_ip, packet)

    def send_udp(self, index: int, dst_ip: IPv4Address, sport: int,
                 dport: int, payload: Any) -> None:
        self.send_ip(index, dst_ip, PROTO_UDP,
                     UdpDatagram(sport=sport, dport=dport, payload=payload))

    def bind_udp(self, index: int, port: int, handler: UdpHandler) -> None:
        self._check_index(index)
        key = (index, port)
        if key in self._udp_handlers:
            raise ValueError(f"{self.name}#{index}: UDP port {port} "
                             f"already bound")
        self._udp_handlers[key] = handler

    def unbind_udp(self, index: int, port: int) -> None:
        self._udp_handlers.pop((index, port), None)

    def ping(self, index: int, dst_ip: IPv4Address, seq: int = 0,
             payload_size: int = 56,
             on_reply: Optional[PingHandler] = None) -> int:
        """One ICMP echo request from endpoint *index*; returns the ident."""
        ident = (self._ping_ident.get(index, 0) + 1) & 0xFFFF
        self._ping_ident[index] = ident
        if on_reply is not None:
            self._ping_handlers[(index, ident)] = on_reply
        self._ping_sent_at[(index, ident, seq)] = self.sim.now
        echo = make_echo_request(ident=ident, seq=seq,
                                 payload=b"\x00" * payload_size)
        self.send_ip(index, dst_ip, PROTO_ICMP, echo)
        return ident

    def gratuitous_arp(self, index: int) -> None:
        """Broadcast a gratuitous ARP announcing endpoint *index*."""
        mac = self.mac_of(index)
        announcement = arp_proto.make_gratuitous(mac, self.ip_of(index))
        self.counters.arp_requests_sent += 1
        self._arp_requests_sent[index] = \
            self._arp_requests_sent.get(index, 0) + 1
        self.port.send(EthernetFrame(dst=BROADCAST, src=mac,
                                     ethertype=ETHERTYPE_ARP,
                                     payload=announcement))
        self.sim.schedule(self.local_latency, self._hear_arp_broadcast,
                          announcement, index)

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

    # -- ARP resolution ------------------------------------------------------

    def _lookup_arp(self, index: int, ip_int: int) -> Optional[MAC]:
        """Freshest unexpired binding from the overlay or shared map."""
        now = self.sim.now
        mac = None
        expires = now
        entry = self._arp_overlay.get((index, ip_int))
        if entry is not None:
            if entry[1] <= now:
                del self._arp_overlay[(index, ip_int)]
            else:
                mac, expires = entry
        shared = self._shared_arp.get(ip_int)
        if shared is not None:
            if shared[1] <= now:
                del self._shared_arp[ip_int]
            elif shared[1] > expires:
                mac = shared[0]
        return mac

    def _resolve_and_send(self, index: int, dst_ip: IPv4Address,
                          packet: IPv4Packet) -> None:
        key = (index, int(dst_ip))
        pending = self._pending.get(key)
        if pending is not None:
            if len(pending[0]) >= self.max_pending_per_ip:
                self.dropped_pending += 1
            else:
                pending[0].append(packet)
            return
        pending = [[packet], self.arp_max_retries, None]
        self._pending[key] = pending
        self._pending_waiters.setdefault(int(dst_ip), set()).add(index)
        self._send_arp_request(index, dst_ip)
        pending[2] = self.sim.schedule(self.arp_retry_interval,
                                       self._arp_retry, index, int(dst_ip))

    def _send_arp_request(self, index: int, dst_ip: IPv4Address) -> None:
        mac = self.mac_of(index)
        request = arp_proto.make_request(mac, self.ip_of(index), dst_ip)
        self.counters.arp_requests_sent += 1
        self._arp_requests_sent[index] = \
            self._arp_requests_sent.get(index, 0) + 1
        self.port.send(EthernetFrame(dst=BROADCAST, src=mac,
                                     ethertype=ETHERTYPE_ARP,
                                     payload=request))
        # Siblings behind the same port hear the broadcast too (a bridge
        # never floods a frame back out its ingress port, so the only
        # path to them is this internal event).
        self.sim.schedule(self.local_latency, self._hear_arp_broadcast,
                          request, index)

    def _arp_retry(self, index: int, ip_int: int) -> None:
        key = (index, ip_int)
        pending = self._pending.get(key)
        if pending is None:
            return
        if pending[1] <= 0:
            del self._pending[key]
            self._drop_waiter(ip_int, index)
            dropped = len(pending[0])
            self.dropped_pending += dropped
            self.counters.resolution_failures += dropped
            self._resolution_failures[index] = \
                self._resolution_failures.get(index, 0) + dropped
            return
        pending[1] -= 1
        self._send_arp_request(index, IPv4Address(ip_int))
        pending[2] = self.sim.schedule(self.arp_retry_interval,
                                       self._arp_retry, index, ip_int)

    def _drop_waiter(self, ip_int: int, index: int) -> None:
        waiters = self._pending_waiters.get(ip_int)
        if waiters is not None:
            waiters.discard(index)
            if not waiters:
                del self._pending_waiters[ip_int]

    def _flush_pending(self, index: int, ip_int: int, mac: MAC) -> None:
        pending = self._pending.pop((index, ip_int), None)
        if pending is None:
            return
        if pending[2] is not None:
            pending[2].cancel()
        self._drop_waiter(ip_int, index)
        for packet in pending[0]:
            self._transmit_ip(index, mac, packet)

    # -- receiving -----------------------------------------------------------

    def handle_frame(self, port: Port, frame: EthernetFrame) -> None:
        if self._index_of_mac(frame.src.value) is not None:
            return  # our own frame echoed back
        if frame.dst.is_multicast:  # includes broadcast
            if frame.ethertype == ETHERTYPE_ARP \
                    and isinstance(frame.payload, ArpPacket):
                self._hear_arp_broadcast(frame.payload, None)
            elif frame.ethertype == ETHERTYPE_IPV4 \
                    and isinstance(frame.payload, IPv4Packet):
                self._hear_ip_broadcast(frame.payload)
            return
        index = self._index_of_mac(frame.dst.value)
        if index is None:
            return  # unknown-unicast flood for somebody else
        if frame.ethertype == ETHERTYPE_ARP \
                and isinstance(frame.payload, ArpPacket):
            self._hear_arp_unicast(index, frame.payload)
        elif frame.ethertype == ETHERTYPE_IPV4 \
                and isinstance(frame.payload, IPv4Packet):
            self._receive_ip_unicast(index, frame.payload)
        # Other ethertypes (BPDU, ARP-Path control) are ignored: hosts
        # are unmodified.

    def _hear_arp_broadcast(self, pkt: ArpPacket,
                            sender: Optional[int]) -> None:
        """One broadcast ARP frame, heard by every endpoint at once.

        *sender* is the originating endpoint index for internally
        generated broadcasts (it does not hear its own frame), None for
        frames arriving on the port. O(1 + waiters flushed), never O(N).
        """
        spa = int(pkt.spa)
        if spa != 0:
            self._shared_arp[spa] = (pkt.sha, self.sim.now + self.arp_timeout)
            waiters = self._pending_waiters.get(spa)
            if waiters:
                for index in sorted(waiters):
                    if index != sender:
                        self._flush_pending(index, spa, pkt.sha)
        heard = self.size if sender is None else self.size - 1
        if pkt.is_request:
            self.counters.arp_requests_received += heard
            self._bcast_requests_heard += 1
            if sender is not None:
                self._own_bcast_requests[sender] = \
                    self._own_bcast_requests.get(sender, 0) + 1
            target = self._index_of_ip(int(pkt.tpa))
            if target is not None and target != sender \
                    and spa != int(pkt.tpa):
                self._send_arp_reply(target, pkt)
        else:
            self.counters.arp_replies_received += heard
            self._bcast_replies_heard += 1

    def _hear_arp_unicast(self, index: int, pkt: ArpPacket) -> None:
        spa = int(pkt.spa)
        if spa != 0:
            self._arp_overlay[(index, spa)] = \
                (pkt.sha, self.sim.now + self.arp_timeout)
            self._flush_pending(index, spa, pkt.sha)
        if pkt.is_request:
            self.counters.arp_requests_received += 1
            self._unicast_requests[index] = \
                self._unicast_requests.get(index, 0) + 1
            if int(pkt.tpa) == self._ip_base + index \
                    and spa != self._ip_base + index:
                self._send_arp_reply(index, pkt)
        else:
            self.counters.arp_replies_received += 1
            self._unicast_replies[index] = \
                self._unicast_replies.get(index, 0) + 1

    def _send_arp_reply(self, index: int, request: ArpPacket) -> None:
        mac = self.mac_of(index)
        reply = arp_proto.make_reply(mac, self.ip_of(index),
                                     request.sha, request.spa)
        self.counters.arp_replies_sent += 1
        self._arp_replies_sent[index] = \
            self._arp_replies_sent.get(index, 0) + 1
        local = self._index_of_mac(request.sha.value)
        if local is not None:
            self.sim.schedule(self.local_latency, self._hear_arp_unicast,
                              local, reply)
            return
        self.port.send(EthernetFrame(dst=request.sha, src=mac,
                                     ethertype=ETHERTYPE_ARP,
                                     payload=reply))

    def _transmit_ip(self, index: int, dst_mac: MAC,
                     packet: IPv4Packet) -> None:
        self.counters.ip_sent += 1
        self._ip_sent[index] = self._ip_sent.get(index, 0) + 1
        local = self._index_of_mac(dst_mac.value)
        if local is not None:
            self.sim.schedule(self.local_latency, self._receive_ip_unicast,
                              local, packet)
            return
        self.port.send(EthernetFrame(dst=dst_mac, src=self.mac_of(index),
                                     ethertype=ETHERTYPE_IPV4,
                                     payload=packet))

    def _receive_ip_unicast(self, index: int, packet: IPv4Packet) -> None:
        if int(packet.dst) != self._ip_base + index:
            self.counters.ip_foreign += 1
            self._ip_foreign_unicast[index] = \
                self._ip_foreign_unicast.get(index, 0) + 1
            return
        self._deliver_ip(index, packet)

    def _hear_ip_broadcast(self, packet: IPv4Packet) -> None:
        """A broadcast IPv4 frame: foreign to all but its IP's owner."""
        self._bcast_ip_heard += 1
        foreign = self.size
        target = self._index_of_ip(int(packet.dst))
        if target is not None:
            self._bcast_ip_for[target] = self._bcast_ip_for.get(target, 0) + 1
            foreign -= 1
            self._deliver_ip(target, packet)
        self.counters.ip_foreign += foreign

    def _deliver_ip(self, index: int, packet: IPv4Packet) -> None:
        self.counters.ip_received += 1
        self._ip_received[index] = self._ip_received.get(index, 0) + 1
        if packet.proto == PROTO_UDP and isinstance(packet.payload,
                                                    UdpDatagram):
            self._handle_udp(index, packet)
        elif packet.proto == PROTO_ICMP and isinstance(packet.payload,
                                                       IcmpEcho):
            self._handle_icmp(index, packet)

    def _handle_udp(self, index: int, packet: IPv4Packet) -> None:
        dgram: UdpDatagram = packet.payload
        handler = self._udp_handlers.get((index, dgram.dport))
        if handler is None:
            self.counters.udp_unbound += 1
            self._udp_unbound[index] = self._udp_unbound.get(index, 0) + 1
            return
        self.counters.udp_received += 1
        self._udp_received[index] = self._udp_received.get(index, 0) + 1
        handler(packet.src, dgram.sport, dgram.payload, packet)

    def _handle_icmp(self, index: int, packet: IPv4Packet) -> None:
        echo: IcmpEcho = packet.payload
        if echo.is_request:
            self.counters.echo_requests_received += 1
            self._echo_requests[index] = self._echo_requests.get(index, 0) + 1
            self.send_ip(index, packet.src, PROTO_ICMP, echo.reply())
            return
        self.counters.echo_replies_received += 1
        self._echo_replies[index] = self._echo_replies.get(index, 0) + 1
        sent_at = self._ping_sent_at.pop((index, echo.ident, echo.seq), None)
        handler = self._ping_handlers.get((index, echo.ident))
        if sent_at is not None and handler is not None:
            handler(echo.seq, self.sim.now - sent_at)

    # -- accounting ----------------------------------------------------------

    def endpoint_counters(self, index: int) -> HostCounters:
        """Endpoint *index*'s counters, reconstructed from the flat state.

        Broadcast-received counts derive from the population-wide
        tallies minus the endpoint's own transmissions; everything else
        reads the sparse per-endpoint maps.
        """
        self._check_index(index)
        return HostCounters(
            arp_requests_sent=self._arp_requests_sent.get(index, 0),
            arp_replies_sent=self._arp_replies_sent.get(index, 0),
            arp_requests_received=(self._bcast_requests_heard
                                   - self._own_bcast_requests.get(index, 0)
                                   + self._unicast_requests.get(index, 0)),
            arp_replies_received=(self._bcast_replies_heard
                                  + self._unicast_replies.get(index, 0)),
            ip_sent=self._ip_sent.get(index, 0),
            ip_received=self._ip_received.get(index, 0),
            ip_foreign=(self._bcast_ip_heard
                        - self._bcast_ip_for.get(index, 0)
                        + self._ip_foreign_unicast.get(index, 0)),
            udp_received=self._udp_received.get(index, 0),
            udp_unbound=self._udp_unbound.get(index, 0),
            echo_requests_received=self._echo_requests.get(index, 0),
            echo_replies_received=self._echo_replies.get(index, 0),
            resolution_failures=self._resolution_failures.get(index, 0))

    def state_entries(self) -> int:
        """Live size of the population's mutable state (all flat maps).

        The number the flyweight claim stands on: proportional to
        *activity* (bindings learned, sockets bound, resolutions in
        flight), independent of ``size``.
        """
        sparse = (self._arp_requests_sent, self._arp_replies_sent,
                  self._unicast_requests, self._unicast_replies,
                  self._ip_sent, self._ip_received,
                  self._ip_foreign_unicast, self._udp_received,
                  self._udp_unbound, self._echo_requests,
                  self._echo_replies, self._resolution_failures,
                  self._own_bcast_requests, self._bcast_ip_for,
                  self._udp_handlers, self._ping_handlers,
                  self._ping_sent_at, self._ping_ident, self._ip_ident,
                  self._shared_arp, self._arp_overlay, self._pending,
                  self._pending_waiters)
        return sum(len(store) for store in sparse)

    def __repr__(self) -> str:
        return (f"<HostPopulation {self.name} size={self.size} "
                f"base={self.base_index}>")
