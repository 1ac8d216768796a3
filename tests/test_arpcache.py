"""The host's ARP cache: expiry, refresh, rebinding, the pending queue.

There is no cache object: a host's bindings and parked packets are
state of the one host stack (:class:`~repro.hosts.population.
HostPopulation`, of which a ``Host`` is a population of one). These
checks drive a ``Host`` with ARP frames and sends and read what it
does: which MAC its IPv4 frames go to, which ARP requests it sends,
and what it parks, releases and drops.
"""

import pytest

from repro.frames.arp import OP_REPLY, ArpPacket
from repro.frames.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from repro.frames.ipv4 import ip_for_host
from repro.frames.mac import BROADCAST, mac_for_host
from repro.hosts.host import Host
from repro.hosts.population import (ARP_MAX_RETRIES, ARP_RETRY_INTERVAL,
                                    MAX_PENDING_PER_IP)
from repro.netsim.engine import Simulator

IP0, IP1 = ip_for_host(0), ip_for_host(1)
M0, M1 = mac_for_host(0), mac_for_host(1)


class _Wire:
    """A stand-in link with carrier that records what the host sends."""

    up = True

    def __init__(self):
        self.sent = []

    def transmit(self, port, frame):
        self.sent.append(frame)


def _host(timeout=60.0):
    sim = Simulator(seed=1)
    host = Host(sim, "H", mac_for_host(9), ip_for_host(9),
                arp_timeout=timeout)
    host.port.link = _Wire()
    return sim, host


def _hear(host, ip, mac, broadcast=False):
    """*host* hears an ARP reply binding *ip* to *mac*."""
    reply = ArpPacket(op=OP_REPLY, sha=mac, spa=ip, tha=host.mac,
                      tpa=host.ip)
    host.handle_frame(host.port, EthernetFrame(
        dst=BROADCAST if broadcast else host.mac, src=mac,
        ethertype=ETHERTYPE_ARP, payload=reply))


def _ip_frames(host):
    return [frame for frame in host.port.link.sent
            if frame.ethertype == ETHERTYPE_IPV4]


def _resolves(sim, host, ip, at):
    """At *at*, the MAC *host* sends to *ip* with, or None (it ARPs)."""
    sim.run(until=at)
    before = len(_ip_frames(host))
    host.send_udp(ip, 1, 2, b"probe")
    sent = _ip_frames(host)[before:]
    return sent[0].dst if sent else None


class TestLookups:
    def test_miss_returns_none(self):
        sim, host = _host()
        assert _resolves(sim, host, IP0, at=0.0) is None
        assert host.counters.arp_requests_sent == 1

    def test_insert_then_hit(self):
        sim, host = _host()
        _hear(host, IP0, M0)
        assert _resolves(sim, host, IP0, at=1.0) == M0
        assert host.counters.arp_requests_sent == 0

    def test_expiry(self):
        sim, host = _host(timeout=10.0)
        _hear(host, IP0, M0)
        assert _resolves(sim, host, IP0, at=10.0) is None

    def test_refresh_extends(self):
        sim, host = _host(timeout=10.0)
        _hear(host, IP0, M0)
        sim.run(until=8.0)
        _hear(host, IP0, M0, broadcast=True)
        assert _resolves(sim, host, IP0, at=15.0) == M0

    def test_rebinding_updates_mac(self):
        sim, host = _host()
        _hear(host, IP0, M0)
        sim.run(until=1.0)
        _hear(host, IP0, M1)
        assert _resolves(sim, host, IP0, at=2.0) == M1
        # At one instant, a unicast and a broadcast rebinding: the later
        # write wins, whichever kind it is.
        for last_broadcast in (True, False):
            for mac, broadcast in ((M0, not last_broadcast),
                                   (M1, last_broadcast)):
                _hear(host, IP0, mac, broadcast)
            assert _resolves(sim, host, IP0, at=sim.now) == M1
            _hear(host, IP0, M0)

    def test_contains_and_len(self):
        sim, host = _host()
        idle = host.state_entries()
        _hear(host, IP0, M0)
        # One binding, for the address heard and no other.
        assert host.state_entries() == idle + 1
        assert _resolves(sim, host, IP0, at=0.0) == M0
        assert _resolves(sim, host, IP1, at=0.0) is None

    def test_refresh_is_in_place(self):
        sim, host = _host(timeout=10.0)
        _hear(host, IP0, M0)
        _hear(host, IP1, M1)
        entries = host.state_entries()
        sim.run(until=5.0)
        _hear(host, IP0, M1)
        assert host.state_entries() == entries
        assert _resolves(sim, host, IP0, at=14.9) == M1
        assert _resolves(sim, host, IP0, at=15.0) is None

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_binding_born_expired_is_not_kept(self, timeout):
        """``arp_timeout <= 0``: a binding heard is not kept, releases
        nothing parked, and drops an older binding for the address."""
        sim, host = _host(timeout=timeout)
        idle = host.state_entries()
        _hear(host, IP0, M0)
        assert host.state_entries() == idle
        host.send_udp(IP0, 1, 2, b"parked")
        _hear(host, IP0, M0)
        _hear(host, IP0, M0, broadcast=True)
        assert _ip_frames(host) == []

        sim, live = _host(timeout=10.0)
        _hear(live, IP0, M0, broadcast=True)
        live.arp_timeout = timeout
        _hear(live, IP0, M1, broadcast=True)
        assert _resolves(sim, live, IP0, at=1.0) is None


class TestPendingQueue:
    def test_park_and_take(self):
        sim, host = _host()
        host.send_udp(IP0, 1, 2, b"packet-1")
        host.send_udp(IP0, 1, 2, b"packet-2")
        assert _ip_frames(host) == []
        _hear(host, IP0, M0)
        assert [frame.payload.payload.payload
                for frame in _ip_frames(host)] == [b"packet-1", b"packet-2"]
        assert host.counters.arp_requests_sent == 1

    def test_overflow_drops(self):
        sim, host = _host()
        for index in range(MAX_PENDING_PER_IP + 2):
            host.send_udp(IP0, 1, 2, bytes([index]))
        assert host.dropped_pending == 2
        _hear(host, IP0, M0)
        assert [frame.payload.payload.payload
                for frame in _ip_frames(host)] == \
            [bytes([index]) for index in range(MAX_PENDING_PER_IP)]

    def test_abandon_counts_drops(self):
        sim, host = _host()
        host.send_udp(IP0, 1, 2, b"a")
        host.send_udp(IP0, 1, 2, b"b")
        sim.run(until=(ARP_MAX_RETRIES + 1) * ARP_RETRY_INTERVAL)
        assert host.dropped_pending == 2
        assert host.counters.resolution_failures == 2
        assert host.counters.arp_requests_sent == 1 + ARP_MAX_RETRIES

    def test_abandon_unknown_is_zero(self):
        """An address that resolved is never abandoned."""
        sim, host = _host()
        host.send_udp(IP0, 1, 2, b"a")
        _hear(host, IP0, M0)
        sim.run(until=10.0)
        assert host.dropped_pending == 0
        assert host.counters.resolution_failures == 0

    def test_pending_for(self):
        """One resolution per address, however many packets wait."""
        sim, host = _host()
        host.send_udp(IP0, 1, 2, b"a")
        entries = host.state_entries()
        host.send_udp(IP0, 1, 2, b"b")
        assert host.state_entries() == entries
        assert host.counters.arp_requests_sent == 1

    def test_pending_ips(self):
        """Each address parks on its own and resolves on its own."""
        sim, host = _host()
        host.send_udp(IP0, 1, 2, b"for-0")
        host.send_udp(IP1, 1, 2, b"for-1")
        assert host.counters.arp_requests_sent == 2
        _hear(host, IP1, M1)
        assert [(frame.dst, frame.payload.payload.payload)
                for frame in _ip_frames(host)] == [(M1, b"for-1")]

    def test_take_cancels_retry_event(self):
        sim, host = _host()
        host.send_udp(IP0, 1, 2, b"a")
        _hear(host, IP0, M0)
        sim.run(until=5 * ARP_RETRY_INTERVAL)
        assert host.counters.arp_requests_sent == 1
        assert sim.pending_events == 0

