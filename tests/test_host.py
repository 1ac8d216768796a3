"""Tests for the end-host stack (ARP resolution, UDP, ICMP).

Hosts talk through a plain learning switch here — the point is the host
stack itself, independent of any bridging protocol.
"""

import pytest

from repro.frames.ethernet import ETHERTYPE_ARP
from repro.hosts.population import ARP_MAX_RETRIES
from repro.topology import learning
from repro.topology.builder import Network


@pytest.fixture
def lan(sim):
    """Two hosts on one learning switch."""
    net = Network(sim, bridge_factory=learning())
    net.add_bridge("SW")
    net.add_host("H0")
    net.add_host("H1")
    net.attach("H0", "SW", latency=1e-6)
    net.attach("H1", "SW", latency=1e-6)
    net.start()
    return net


class TestArpResolution:
    def test_first_ip_packet_triggers_arp(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        h0.send_udp(h1.ip, 1000, 2000, b"hi")
        lan.run(1.0)
        assert h0.counters.arp_requests_sent == 1
        assert h1.counters.arp_requests_received == 1
        assert h0.counters.arp_replies_received == 1

    def test_packet_delivered_after_resolution(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        got = []
        h1.bind_udp(2000, lambda sip, sp, payload, pkt: got.append(payload))
        h0.send_udp(h1.ip, 1000, 2000, b"hi")
        lan.run(1.0)
        assert got == [b"hi"]

    def test_cached_resolution_skips_arp(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        h0.send_udp(h1.ip, 1000, 2000, b"one")
        lan.run(1.0)
        h0.send_udp(h1.ip, 1000, 2000, b"two")
        lan.run(1.0)
        assert h0.counters.arp_requests_sent == 1

    def test_multiple_packets_parked_then_flushed(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        got = []
        h1.bind_udp(2000, lambda sip, sp, payload, pkt: got.append(payload))
        for index in range(3):
            h0.send_udp(h1.ip, 1000, 2000, bytes([index]))
        lan.run(1.0)
        assert got == [b"\x00", b"\x01", b"\x02"]
        assert h0.counters.arp_requests_sent == 1

    def test_unresolvable_address_gives_up(self, lan):
        from repro.frames.ipv4 import IPv4Address
        h0 = lan.host("H0")
        h0.send_udp(IPv4Address("10.9.9.9"), 1000, 2000, b"void")
        lan.run(10.0)
        assert h0.counters.resolution_failures == 1
        # Retried the configured number of times.
        assert h0.counters.arp_requests_sent == 1 + ARP_MAX_RETRIES

    def test_gratuitous_arp_populates_peers(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        got = []
        h0.bind_udp(2, lambda sip, sp, payload, pkt: got.append(payload))
        h0.gratuitous_arp()
        lan.run(1.0)
        # H1 sends to H0 straight away: the announcement resolved it.
        h1.send_udp(h0.ip, 1, 2, b"direct")
        lan.run(1.0)
        assert got == [b"direct"]
        assert h1.counters.arp_requests_sent == 0

    def test_opportunistic_learning_from_request(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        h0.send_udp(h1.ip, 1, 2, b"")
        lan.run(1.0)
        # H1 learnt H0's binding from the request itself.
        h1.send_udp(h0.ip, 2, 1, b"")
        lan.run(1.0)
        assert h1.counters.arp_requests_sent == 0
        assert h0.counters.udp_unbound == 1


class TestUdp:
    def test_unbound_port_counted(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        h0.send_udp(h1.ip, 1000, 4242, b"nobody home")
        lan.run(1.0)
        assert h1.counters.udp_unbound == 1

    def test_double_bind_rejected(self, lan):
        h1 = lan.host("H1")
        h1.bind_udp(5000, lambda *a: None)
        with pytest.raises(ValueError):
            h1.bind_udp(5000, lambda *a: None)

    def test_handler_gets_source_info(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        seen = []
        h1.bind_udp(2000, lambda sip, sp, payload, pkt:
                    seen.append((sip, sp)))
        h0.send_udp(h1.ip, 1234, 2000, b"x")
        lan.run(1.0)
        assert seen == [(h0.ip, 1234)]


class TestPing:
    def test_rtt_measured(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        rtts = []
        h0.ping(h1.ip, seq=1, on_reply=lambda seq, rtt: rtts.append(rtt))
        lan.run(1.0)
        assert len(rtts) == 1 and rtts[0] > 0

    def test_seq_passed_through(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        seqs = []
        h0.ping(h1.ip, seq=7, on_reply=lambda seq, rtt: seqs.append(seq))
        lan.run(1.0)
        assert seqs == [7]

    def test_echo_counters(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        h0.ping(h1.ip)
        lan.run(1.0)
        assert h1.counters.echo_requests_received == 1
        assert h0.counters.echo_replies_received == 1

    def test_concurrent_pings_matched_by_ident(self, lan):
        h0, h1 = lan.host("H0"), lan.host("H1")
        replies = []
        h0.ping(h1.ip, seq=1, on_reply=lambda s, r: replies.append(("a", s)))
        h0.ping(h1.ip, seq=1, on_reply=lambda s, r: replies.append(("b", s)))
        lan.run(1.0)
        assert sorted(replies) == [("a", 1), ("b", 1)]


class TestFiltering:
    def test_foreign_unicast_ignored(self, lan, sim):
        """A frame unicast to another MAC is dropped by the NIC filter."""
        from repro.frames.ethernet import ETHERTYPE_IPV4, EthernetFrame
        from repro.frames.ipv4 import IPv4Packet, PROTO_UDP
        from repro.frames.udp import UdpDatagram
        h0, h1 = lan.host("H0"), lan.host("H1")
        rogue = IPv4Packet(src=h0.ip, dst=h1.ip, proto=PROTO_UDP,
                           payload=UdpDatagram(1, 2))
        # Address the frame to a MAC that is not H1.
        h0.port.send(EthernetFrame(dst=h0.mac, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=rogue))
        lan.run(1.0)
        assert h1.counters.ip_received == 0

    def test_ip_for_other_address_counted_foreign(self, lan):
        from repro.frames.ethernet import ETHERTYPE_IPV4, EthernetFrame
        from repro.frames.ipv4 import IPv4Address, IPv4Packet, PROTO_UDP
        from repro.frames.udp import UdpDatagram
        h0, h1 = lan.host("H0"), lan.host("H1")
        wrong_ip = IPv4Packet(src=h0.ip, dst=IPv4Address("10.99.99.99"),
                              proto=PROTO_UDP, payload=UdpDatagram(1, 2))
        h0.port.send(EthernetFrame(dst=h1.mac, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4,
                                   payload=wrong_ip))
        lan.run(1.0)
        assert h1.counters.ip_foreign == 1
        assert h1.counters.ip_received == 0

    def test_own_frames_ignored(self, lan):
        """A reflected frame with our own source MAC is dropped."""
        h0 = lan.host("H0")
        before = h0.counters.arp_requests_received
        from repro.frames.arp import make_request
        from repro.frames.ethernet import EthernetFrame
        from repro.frames.mac import BROADCAST
        probe = make_request(h0.mac, h0.ip, h0.ip)
        h0.handle_frame(h0.port, EthernetFrame(
            dst=BROADCAST, src=h0.mac, ethertype=ETHERTYPE_ARP,
            payload=probe))
        assert h0.counters.arp_requests_received == before
