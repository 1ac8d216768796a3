"""The host stack compares integers and behaves exactly as it did.

``Host`` and ``ArpCache`` classify, match and key on the addresses'
``_value`` integers (ARCHITECTURE §7, "Hosts compare integers"). The
invariant is that nothing observable moved: below, one ``Host`` and a
reference ``Host`` running the object-comparing receive path it
replaced are fed the same random frames and local sends, and after
every step their counters, ordered ARP cache, parked queues, sent
frames and UDP deliveries must be equal.
"""

from dataclasses import asdict

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.frames import arp as arp_proto
from repro.frames.arp import ArpPacket
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_IPV4,
                                   EthernetFrame)
from repro.frames.icmp import IcmpEcho, make_echo_request
from repro.frames.ipv4 import (IPv4Address, IPv4Packet, PROTO_ICMP,
                               PROTO_UDP, ip_for_host)
from repro.frames.mac import BROADCAST, MAC, mac_for_host
from repro.frames.udp import UdpDatagram
from repro.hosts.arpcache import ArpCache, ArpEntry
from repro.hosts.host import Host
from repro.netsim.engine import Simulator


class ReferenceArpCache(ArpCache):
    """Entries keyed by ``IPv4Address``, a fresh ``ArpEntry`` per insert."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.by_ip = {}

    def lookup(self, ip, now):
        entry = self.by_ip.get(ip)
        if entry is None:
            return None
        if entry.expires <= now:
            del self.by_ip[ip]
            return None
        return entry.mac

    def insert(self, ip, mac, now):
        self.by_ip[ip] = ArpEntry(mac=mac, expires=now + self.timeout)


class ReferenceHost(Host):
    """The receive path as it was before it compared integers."""

    def __init__(self, *args, arp_timeout, **kwargs):
        super().__init__(*args, arp_timeout=arp_timeout, **kwargs)
        self.arp_cache = ReferenceArpCache(timeout=arp_timeout,
                                           max_retries=self.arp_cache
                                           .max_retries)

    def handle_frame(self, port, frame):
        if frame.src == self.mac:
            return
        if not frame.dst.is_broadcast and frame.dst != self.mac \
                and not frame.dst.is_multicast:
            return
        if frame.ethertype == ETHERTYPE_ARP \
                and isinstance(frame.payload, ArpPacket):
            self._handle_arp(frame.payload)
        elif frame.ethertype == ETHERTYPE_IPV4 \
                and isinstance(frame.payload, IPv4Packet):
            self._handle_ip(frame.payload)

    def _handle_arp(self, pkt):
        if int(pkt.spa) != 0:
            self.arp_cache.insert(pkt.spa, pkt.sha, self.sim.now)
            self._flush_pending(pkt.spa)
        if pkt.is_request:
            self.counters.arp_requests_received += 1
            if pkt.tpa == self.ip and pkt.spa != self.ip:
                reply = arp_proto.make_reply(self.mac, self.ip,
                                             pkt.sha, pkt.spa)
                self.counters.arp_replies_sent += 1
                self.port.send(EthernetFrame(dst=pkt.sha, src=self.mac,
                                             ethertype=ETHERTYPE_ARP,
                                             payload=reply))
        else:
            self.counters.arp_replies_received += 1

    def _flush_pending(self, ip):
        mac = self.arp_cache.lookup(ip, self.sim.now)
        if mac is None:
            return
        for packet in self.arp_cache.take_pending(ip):
            self._transmit_ip(mac, packet)

    def _handle_ip(self, packet):
        if packet.dst != self.ip:
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


class _Wire:
    """A stand-in link with carrier that records what the host sends."""

    up = True

    def __init__(self):
        self.sent = []

    def transmit(self, port, frame):
        self.sent.append((frame.dst, frame.src, frame.ethertype,
                          frame.payload))


ME = 0
MACS = [mac_for_host(i) for i in range(4)]
IPS = [ip_for_host(i) for i in range(4)]
GROUPS = [BROADCAST, MAC("01:00:5e:00:00:01"), MAC("33:33:00:00:00:01")]

macs = st.sampled_from(MACS)
ips = st.sampled_from(IPS + [IPv4Address(0)])        # spa == 0: a probe

arp_packets = st.builds(
    ArpPacket, op=st.sampled_from([arp_proto.OP_REQUEST, arp_proto.OP_REPLY]),
    sha=macs, spa=ips, tha=st.sampled_from(MACS + [MAC(0)]), tpa=ips)
gratuitous = st.builds(lambda i: arp_proto.make_gratuitous(MACS[i], IPS[i]),
                       st.integers(0, len(MACS) - 1))
ip_payloads = st.one_of(
    st.builds(UdpDatagram, sport=st.just(9), dport=st.sampled_from([7, 8]),
              payload=st.binary(max_size=4)),
    st.builds(make_echo_request, ident=st.integers(1, 3),
              seq=st.integers(0, 2)),
    st.builds(lambda ident, seq: make_echo_request(ident, seq).reply(),
              st.integers(1, 3), st.integers(0, 2)))
ip_packets = st.builds(
    lambda src, dst, body: IPv4Packet(
        src=src, dst=dst,
        proto=PROTO_ICMP if isinstance(body, IcmpEcho) else PROTO_UDP,
        payload=body),
    ips, ips, ip_payloads)
frames = st.builds(
    lambda dst, src, body: (
        "frame", dst, src,
        ETHERTYPE_ARP if isinstance(body, ArpPacket) else
        ETHERTYPE_IPV4 if isinstance(body, IPv4Packet) else 0x88CC,
        body),
    st.one_of(macs, st.sampled_from(GROUPS)), macs,
    st.one_of(arp_packets, gratuitous, ip_packets, st.just(b"lldp")))
sends = st.builds(lambda peer: ("send", peer), st.integers(1, len(IPS) - 1))
waits = st.builds(lambda dt: ("wait", dt),
                  st.sampled_from([0.0, 0.25, 0.5, 1.0]))
steps = st.lists(st.one_of(frames, frames, sends, waits), max_size=40)


def _build(cls, timeout):
    sim = Simulator(seed=1)
    host = cls(sim, "H", MACS[ME], IPS[ME], arp_timeout=timeout)
    host.port.link = _Wire()
    delivered = []
    host.bind_udp(7, lambda *args: delivered.append(args))
    return sim, host, delivered


def _cache(host):
    cache = host.arp_cache
    if isinstance(cache, ReferenceArpCache):
        items = cache.by_ip.items()
    else:
        items = ((IPv4Address(key), entry)
                 for key, entry in cache._entries.items())
    return [(ip, entry.mac, entry.expires) for ip, entry in items]


def _state(host, delivered):
    cache = host.arp_cache
    return (asdict(host.counters), _cache(host),
            [(ip, list(cache.pending_for(ip).packets),
              cache.pending_for(ip).retries_left)
             for ip in cache.pending_ips],
            cache.dropped_pending, host.port.link.sent, delivered)


@settings(max_examples=300, deadline=None)
@given(timeout=st.sampled_from([0.0, 0.5, 60.0]), script=steps)
def test_integer_host_matches_the_object_comparing_reference(timeout, script):
    runs = [_build(Host, timeout), _build(ReferenceHost, timeout)]
    for step in script:
        for sim, host, _delivered in runs:
            if step[0] == "frame":
                _, dst, src, ethertype, body = step
                host.handle_frame(host.port, EthernetFrame(
                    dst=dst, src=src, ethertype=ethertype, payload=body))
            elif step[0] == "send":
                host.send_udp(IPS[step[1]], 9, 7, b"x")
            else:
                sim.run(until=sim.now + step[1])
        ours, reference = (_state(host, delivered)
                           for _sim, host, delivered in runs)
        assert ours == reference, step
