"""A ``Host`` is a population of one and behaves exactly as it did.

Before, ``Host`` ran its own ARP / IPv4 / UDP / ICMP stack on an
``ArpCache``; now it is a :class:`~repro.hosts.population.HostPopulation`
of size 1 (ARCHITECTURE §7). The invariant is that nothing observable
moved: below, one ``Host``, endpoint 0 of a population of two (whose
idle sibling hears its broadcasts, and which keeps unicast-learned
bindings in its overlay) and the frozen pre-population stack
(``tests/host_reference.py``) are fed the same random frames, local
sends and pings, and after every step their counters, live ARP bindings
(MAC and expiry), parked queues, sent frames and UDP deliveries must be
equal. The population is compared until a frame from our own address
arrives: its sibling learned that address from our own broadcasts
(shared learning, ``population.py``), so where a lone host would ARP
for itself to answer, the population answers at once.

Two rules the two stacks used to disagree on are pinned by the script
on purpose, and the reference's rule is the one both follow:

* at ``arp_timeout <= 0`` a binding is not kept, and parked packets are
  not released by it;
* when one address is rebound to two MACs at the same instant, once by
  a unicast ARP and once by a broadcast one, the later write wins.
"""

from dataclasses import asdict

import hypothesis.strategies as st
from host_reference import ReferenceHost
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
from repro.hosts.host import Host
from repro.hosts.population import HostPopulation
from repro.netsim.engine import Simulator


class _Wire:
    """A stand-in link with carrier that records what the host sends."""

    up = True

    def __init__(self):
        self.sent = []

    def transmit(self, port, frame):
        self.sent.append((frame.dst, frame.src, frame.ethertype,
                          frame.payload))


#: Our addresses are host index 10, so a population based there has
#: its sibling (index 11) outside the script's peers 1-3.
ME, BASE = 0, 10
MACS = [mac_for_host(i) for i in (BASE, 1, 2, 3)]
IPS = [ip_for_host(i) for i in (BASE, 1, 2, 3)]
GROUPS = [BROADCAST, MAC("01:00:5e:00:00:01"), MAC("33:33:00:00:00:01")]

macs = st.sampled_from(MACS)
ips = st.sampled_from(IPS + [IPv4Address(0)])        # spa == 0: a probe
peers = st.integers(1, len(IPS) - 1)
ops = st.sampled_from([arp_proto.OP_REQUEST, arp_proto.OP_REPLY])

arp_packets = st.builds(
    ArpPacket, op=ops, sha=macs, spa=ips,
    tha=st.sampled_from(MACS + [MAC(0)]), tpa=ips)
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
#: One peer address rebound to two other MACs at one instant: a unicast
#: ARP to us and a broadcast one, in either order.
rebinds = st.builds(
    lambda peer, pair, op, unicast_first: (
        "rebind", peer, pair, op, unicast_first),
    peers, st.lists(st.sampled_from(MACS[1:]), min_size=2, max_size=2,
                    unique=True), ops, st.booleans())
sends = st.builds(lambda peer: ("send", peer), peers)
pings = st.builds(lambda peer: ("ping", peer), peers)
waits = st.builds(lambda dt: ("wait", dt),
                  st.sampled_from([0.0, 0.25, 0.5, 1.0]))
steps = st.lists(st.one_of(frames, frames, rebinds, sends, pings, waits),
                 max_size=40)


def _build(kind, timeout):
    sim = Simulator(seed=1)
    if kind is HostPopulation:
        host = HostPopulation(sim, "P", 2, BASE, arp_timeout=timeout)
    else:
        host = kind(sim, "H", MACS[ME], IPS[ME], arp_timeout=timeout)
    host.port.link = _Wire()
    delivered = []
    host.bind_udp(7, lambda *args: delivered.append(args))
    return sim, host, delivered


def _frames(step):
    """The (dst, src, ethertype, payload) frames a step delivers."""
    if step[0] == "frame":
        return [step[1:]]
    _, peer, pair, op, unicast_first = step
    dsts = [MACS[ME], BROADCAST] if unicast_first else [BROADCAST, MACS[ME]]
    return [(dst, mac, ETHERTYPE_ARP,
             ArpPacket(op=op, sha=mac, spa=IPS[peer], tha=MAC(0),
                       tpa=IPS[ME]))
            for dst, mac in zip(dsts, pair)]


def _bindings(host):
    """Every peer address's live binding as (mac, expires), else None.

    Our own address is left out: a sibling learns it from our
    broadcasts, and no step sends to it."""
    now = host.sim.now
    if isinstance(host, ReferenceHost):
        entries = [host.arp_cache._entries.get(ip._value) for ip in IPS[1:]]
        return [(entry.mac, entry.expires)
                if entry is not None and entry.expires > now else None
                for entry in entries]
    views = []
    for ip in IPS[1:]:
        binding = host._shared.get(ip._value)
        own = host._overlay.get((0, ip._value))
        if own is not None and (binding is None or own[2] is binding):
            binding = own
        views.append(binding[:2] if binding is not None
                     and binding[1] > now else None)
    return views


def _parked(host):
    """[(address, parked packets, retries left)] in resolution order."""
    if isinstance(host, ReferenceHost):
        cache = host.arp_cache
        return [(ip, list(cache.pending_for(ip).packets),
                 cache.pending_for(ip).retries_left)
                for ip in cache.pending_ips], cache.dropped_pending
    return [(IPv4Address(key), list(packets), retries)
            for (_index, key), (packets, retries, _event)
            in host._pending.items()], host.dropped_pending


def _from_ourselves(step):
    return step[0] == "frame" and isinstance(step[4], IPv4Packet) \
        and step[4].src == IPS[ME]


def _state(host, delivered):
    counters = host.counters if isinstance(host, ReferenceHost) \
        else host.endpoint_counters(0)
    return (asdict(counters), _bindings(host), _parked(host),
            host.port.link.sent, delivered)


@settings(max_examples=300, deadline=None)
@given(timeout=st.sampled_from([0.0, 0.5, 60.0]), script=steps)
def test_integer_host_matches_the_object_comparing_reference(timeout, script):
    runs = {kind: _build(kind, timeout)
            for kind in (Host, HostPopulation, ReferenceHost)}
    for step in script:
        if _from_ourselves(step):
            runs.pop(HostPopulation, None)   # see the module docstring
        for sim, host, _delivered in runs.values():
            if step[0] in ("frame", "rebind"):
                for dst, src, ethertype, body in _frames(step):
                    host.handle_frame(host.port, EthernetFrame(
                        dst=dst, src=src, ethertype=ethertype,
                        payload=body))
            elif step[0] == "send":
                host.send_udp(IPS[step[1]], 9, 7, b"x")
            elif step[0] == "ping":
                host.ping(IPS[step[1]])
            else:
                sim.run(until=sim.now + step[1])
        states = {kind: _state(host, delivered)
                  for kind, (_sim, host, delivered) in runs.items()}
        reference = states.pop(ReferenceHost)
        for kind, state in states.items():
            assert state == reference, (kind.__name__, step)
