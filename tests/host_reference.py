"""A frozen copy of the end-host stack from before a ``Host`` was a
population of one: ``ArpCache`` and the ``Host`` that ran its own ARP /
IPv4 / UDP / ICMP stack on it.

Test-only, and nothing under ``src/`` imports it. It is the reference
``tests/test_host_equivalence.py`` and
``tests/test_population.py::TestHostEquivalence`` run the live host
stack against: fed the same frames and sends, the two must send the
same frames, deliver the same datagrams and count the same. The classes
are copied unedited but for ``Host``'s name (``ReferenceHost``), with
the two modules' imports merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.frames import arp as arp_proto
from repro.frames.arp import ArpPacket
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_IPV4,
                                   EthernetFrame)
from repro.frames.icmp import IcmpEcho, make_echo_request
from repro.frames.ipv4 import (DEFAULT_TTL, IPv4Address, IPv4Packet,
                               PROTO_ICMP, PROTO_UDP)
from repro.frames.mac import _GROUP_BIT, BROADCAST, MAC
from repro.frames.udp import UdpDatagram
from repro.netsim.engine import Simulator
from repro.netsim.node import Node, Port

DEFAULT_ARP_TIMEOUT = 60.0
DEFAULT_RETRY_INTERVAL = 1.0
DEFAULT_MAX_RETRIES = 3


@dataclass(slots=True)
class ArpEntry:
    mac: MAC
    expires: float


@dataclass(slots=True)
class PendingResolution:
    """Packets parked while an IP address resolves."""

    packets: List[Any] = field(default_factory=list)
    retries_left: int = DEFAULT_MAX_RETRIES
    retry_event: Any = None


class ArpCache:
    """IP→MAC mappings with expiry, plus a queue of unresolved packets."""

    def __init__(self, timeout: float = DEFAULT_ARP_TIMEOUT,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 max_pending_per_ip: int = 16):
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_pending_per_ip = max_pending_per_ip
        self._entries: Dict[int, ArpEntry] = {}
        self._pending: Dict[int, PendingResolution] = {}
        self.dropped_pending = 0

    def lookup(self, ip: IPv4Address, now: float) -> Optional[MAC]:
        """The cached MAC for *ip*, or None when absent/expired."""
        key = ip._value
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.expires <= now:
            del self._entries[key]
            return None
        return entry.mac

    def insert(self, ip: IPv4Address, mac: MAC,
               now: float) -> Optional[MAC]:
        """Learn (or refresh, in place) a binding; returns *mac*.

        A binding that would be born expired (``timeout <= 0``) is not
        kept: any entry for *ip* is dropped and None is returned, as a
        lookup at *now* would have done.
        """
        key = ip._value
        expires = now + self.timeout
        if expires <= now:
            self._entries.pop(key, None)
            return None
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = ArpEntry(mac=mac, expires=expires)
        else:
            entry.mac = mac
            entry.expires = expires
        return mac

    def invalidate(self, ip: IPv4Address) -> None:
        """Forget a binding (e.g. on delivery failure)."""
        self._entries.pop(ip._value, None)

    def flush(self) -> None:
        """Forget everything."""
        self._entries.clear()

    def __contains__(self, ip: IPv4Address) -> bool:
        return ip._value in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- pending queue -------------------------------------------------------

    def park(self, ip: IPv4Address, packet: Any) -> PendingResolution:
        """Queue *packet* until *ip* resolves.

        Returns the pending record; the caller owns retry scheduling.
        Overflowing packets beyond ``max_pending_per_ip`` are dropped
        (matching real stacks, which keep a tiny ARP hold queue).
        """
        key = ip._value
        pending = self._pending.get(key)
        if pending is None:
            pending = PendingResolution(retries_left=self.max_retries)
            self._pending[key] = pending
        if len(pending.packets) >= self.max_pending_per_ip:
            self.dropped_pending += 1
            return pending
        pending.packets.append(packet)
        return pending

    def pending_for(self, ip: IPv4Address) -> Optional[PendingResolution]:
        return self._pending.get(ip._value)

    def take_pending(self, ip: IPv4Address) -> List[Any]:
        """Remove and return the parked packets for *ip* (resolution done)."""
        pending = self._pending.pop(ip._value, None)
        if pending is None:
            return []
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        return pending.packets

    def abandon(self, ip: IPv4Address) -> int:
        """Give up on *ip*; returns the number of packets dropped."""
        pending = self._pending.pop(ip._value, None)
        if pending is None:
            return 0
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        self.dropped_pending += len(pending.packets)
        return len(pending.packets)

    @property
    def pending_ips(self) -> List[IPv4Address]:
        return [IPv4Address(key) for key in self._pending]


#: UDP receive callback: (src_ip, src_port, payload, packet).
UdpHandler = Callable[[IPv4Address, int, Any, IPv4Packet], None]
#: Ping reply callback: (seq, rtt_seconds).
PingHandler = Callable[[int, float], None]


@dataclass
class HostCounters:
    """Packet counters kept by every host."""

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


class ReferenceHost(Node):
    """A single-homed end host with an ARP/IPv4/UDP/ICMP stack."""

    def __init__(self, sim: Simulator, name: str, mac: MAC, ip: IPv4Address,
                 arp_timeout: float = DEFAULT_ARP_TIMEOUT,
                 arp_retry_interval: float = DEFAULT_RETRY_INTERVAL,
                 arp_max_retries: int = DEFAULT_MAX_RETRIES):
        super().__init__(sim, name)
        self.mac = mac
        self.ip = ip
        self.arp_cache = ArpCache(timeout=arp_timeout,
                                  max_retries=arp_max_retries)
        self.arp_retry_interval = arp_retry_interval
        self.port = self.add_port()
        self.counters = HostCounters()
        self._udp_handlers: Dict[int, UdpHandler] = {}
        self._ping_handlers: Dict[int, PingHandler] = {}
        self._ping_sent_at: Dict[tuple, float] = {}
        self._ping_ident = 0
        self._ip_ident = 0
        #: Listeners called for every IP packet this host receives.
        self.ip_listeners: List[Callable[[IPv4Packet], None]] = []

    # -- sending -------------------------------------------------------------

    def send_ip(self, dst_ip: IPv4Address, proto: int, payload: Any,
                ttl: int = DEFAULT_TTL) -> None:
        """Send an IP packet, resolving the destination MAC if needed."""
        self._ip_ident = (self._ip_ident + 1) & 0xFFFF
        packet = IPv4Packet(src=self.ip, dst=dst_ip, proto=proto,
                            payload=payload, ttl=ttl, ident=self._ip_ident)
        mac = self.arp_cache.lookup(dst_ip, self.sim._now)
        if mac is not None:
            self._transmit_ip(mac, packet)
            return
        self._resolve_and_send(dst_ip, packet)

    def send_udp(self, dst_ip: IPv4Address, sport: int, dport: int,
                 payload: Any) -> None:
        """Send a UDP datagram."""
        self.send_ip(dst_ip, PROTO_UDP,
                     UdpDatagram(sport=sport, dport=dport, payload=payload))

    def bind_udp(self, port: int, handler: UdpHandler) -> None:
        """Register *handler* for datagrams arriving on UDP *port*."""
        if port in self._udp_handlers:
            raise ValueError(f"{self.name}: UDP port {port} already bound")
        self._udp_handlers[port] = handler

    def unbind_udp(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    def ping(self, dst_ip: IPv4Address, seq: int = 0,
             payload_size: int = 56,
             on_reply: Optional[PingHandler] = None) -> int:
        """Send one ICMP echo request; returns the ident used.

        *on_reply* fires with ``(seq, rtt)`` when the matching reply
        arrives.
        """
        self._ping_ident = (self._ping_ident + 1) & 0xFFFF
        ident = self._ping_ident
        if on_reply is not None:
            self._ping_handlers[ident] = on_reply
        self._ping_sent_at[(ident, seq)] = self.sim.now
        echo = make_echo_request(ident=ident, seq=seq,
                                 payload=b"\x00" * payload_size)
        self.send_ip(dst_ip, PROTO_ICMP, echo)
        return ident

    def gratuitous_arp(self) -> None:
        """Broadcast a gratuitous ARP announcing this host."""
        announcement = arp_proto.make_gratuitous(self.mac, self.ip)
        self.counters.arp_requests_sent += 1
        self.port.send(EthernetFrame(dst=BROADCAST, src=self.mac,
                                     ethertype=ETHERTYPE_ARP,
                                     payload=announcement))

    # -- ARP resolution ------------------------------------------------------

    def _resolve_and_send(self, dst_ip: IPv4Address,
                          packet: IPv4Packet) -> None:
        pending = self.arp_cache.pending_for(dst_ip)
        already_resolving = pending is not None
        pending = self.arp_cache.park(dst_ip, packet)
        if already_resolving:
            return
        self._send_arp_request(dst_ip)
        pending.retry_event = self.sim.schedule(
            self.arp_retry_interval, self._arp_retry, dst_ip)

    def _send_arp_request(self, dst_ip: IPv4Address) -> None:
        request = arp_proto.make_request(self.mac, self.ip, dst_ip)
        self.counters.arp_requests_sent += 1
        self.port.send(EthernetFrame(dst=BROADCAST, src=self.mac,
                                     ethertype=ETHERTYPE_ARP,
                                     payload=request))

    def _arp_retry(self, dst_ip: IPv4Address) -> None:
        pending = self.arp_cache.pending_for(dst_ip)
        if pending is None:
            return
        if pending.retries_left <= 0:
            dropped = self.arp_cache.abandon(dst_ip)
            self.counters.resolution_failures += dropped
            return
        pending.retries_left -= 1
        self._send_arp_request(dst_ip)
        pending.retry_event = self.sim.schedule(
            self.arp_retry_interval, self._arp_retry, dst_ip)

    # -- receiving -----------------------------------------------------------

    def handle_frame(self, port: Port, frame: EthernetFrame) -> None:
        # Classified on the addresses' integers: ours when addressed to
        # us or to a group (broadcast included) and not sent by us.
        mine = self.mac._value
        dst = frame.dst._value
        if (dst != mine and not dst & _GROUP_BIT) \
                or frame.src._value == mine:
            return
        payload = frame.payload
        if frame.ethertype == ETHERTYPE_ARP \
                and isinstance(payload, ArpPacket):
            self._handle_arp(payload)
        elif frame.ethertype == ETHERTYPE_IPV4 \
                and isinstance(payload, IPv4Packet):
            self._handle_ip(payload)
        # Other ethertypes (BPDU, ARP-Path control) are ignored: hosts
        # are unmodified.

    def _handle_arp(self, pkt: ArpPacket) -> None:
        spa = pkt.spa
        if spa._value != 0:
            # Opportunistically learn the sender binding (standard
            # practice), then release what waited for it.
            cache = self.arp_cache
            mac = cache.insert(spa, pkt.sha, self.sim._now)
            if mac is not None and cache._pending:
                self._flush_pending(spa, mac)
        if pkt.op == arp_proto.OP_REQUEST:
            self.counters.arp_requests_received += 1
            ip = self.ip._value
            if pkt.tpa._value == ip and spa._value != ip:
                reply = arp_proto.make_reply(self.mac, self.ip,
                                             pkt.sha, spa)
                self.counters.arp_replies_sent += 1
                self.port.send(EthernetFrame(dst=pkt.sha, src=self.mac,
                                             ethertype=ETHERTYPE_ARP,
                                             payload=reply))
        else:
            self.counters.arp_replies_received += 1

    def _flush_pending(self, ip: IPv4Address, mac: MAC) -> None:
        for packet in self.arp_cache.take_pending(ip):
            self._transmit_ip(mac, packet)

    def _transmit_ip(self, dst_mac: MAC, packet: IPv4Packet) -> None:
        self.counters.ip_sent += 1
        self.port.send(EthernetFrame(dst=dst_mac, src=self.mac,
                                     ethertype=ETHERTYPE_IPV4,
                                     payload=packet))

    def _handle_ip(self, packet: IPv4Packet) -> None:
        if packet.dst._value != self.ip._value:
            self.counters.ip_foreign += 1
            return
        self.counters.ip_received += 1
        for listener in self.ip_listeners:
            listener(packet)
        if packet.proto == PROTO_UDP and isinstance(packet.payload,
                                                    UdpDatagram):
            self._handle_udp(packet)
        elif packet.proto == PROTO_ICMP and isinstance(packet.payload,
                                                       IcmpEcho):
            self._handle_icmp(packet)

    def _handle_udp(self, packet: IPv4Packet) -> None:
        dgram: UdpDatagram = packet.payload
        handler = self._udp_handlers.get(dgram.dport)
        if handler is None:
            self.counters.udp_unbound += 1
            return
        self.counters.udp_received += 1
        handler(packet.src, dgram.sport, dgram.payload, packet)

    def _handle_icmp(self, packet: IPv4Packet) -> None:
        echo: IcmpEcho = packet.payload
        if echo.is_request:
            self.counters.echo_requests_received += 1
            self.send_ip(packet.src, PROTO_ICMP, echo.reply())
            return
        self.counters.echo_replies_received += 1
        key = (echo.ident, echo.seq)
        sent_at = self._ping_sent_at.pop(key, None)
        handler = self._ping_handlers.get(echo.ident)
        if sent_at is not None and handler is not None:
            handler(echo.seq, self.sim.now - sent_at)

    def __repr__(self) -> str:
        return f"<ReferenceHost {self.name} mac={self.mac} ip={self.ip}>"
