"""Tests for Ethernet frames, ARP, ICMP, UDP and ARP-Path control."""

import pytest

from repro.frames import arp as arp_proto
from repro.frames import control as ctl_proto
from repro.frames.arp import ARP_WIRE_SIZE, ArpPacket, OP_REPLY
from repro.frames.control import (ArpPathControl, CONTROL_WIRE_SIZE,
                                  HELLO_MULTICAST, OP_HELLO, OP_PATH_REQUEST)
from repro.frames.ethernet import (ETH_MIN_FRAME, ETHERTYPE_ARP,
                                   ETHERTYPE_IPV4, EthernetFrame)
from repro.frames.icmp import IcmpEcho, TYPE_ECHO_REPLY, make_echo_request
from repro.frames.ipv4 import ip_for_host
from repro.frames.mac import BROADCAST, MAC, ZERO, mac_for_host
from repro.frames.udp import UDP_HEADER_LEN, UdpDatagram

H0, H1 = mac_for_host(0), mac_for_host(1)
IP0, IP1 = ip_for_host(0), ip_for_host(1)


class TestEthernetFrame:
    def test_minimum_wire_size(self):
        frame = EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4,
                              payload=b"")
        assert frame.wire_size == ETH_MIN_FRAME

    def test_wire_size_grows_with_payload(self):
        frame = EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4,
                              payload=b"x" * 1000)
        assert frame.wire_size == 14 + 1000 + 4

    def test_broadcast_flag(self):
        frame = EthernetFrame(dst=BROADCAST, src=H0, ethertype=ETHERTYPE_ARP)
        assert frame.is_broadcast

    def test_unicast_flag(self):
        frame = EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4)
        assert frame.is_unicast and not frame.is_multicast

    def test_multicast_flag(self):
        frame = EthernetFrame(dst=MAC("01:00:5e:00:00:05"), src=H0,
                              ethertype=ETHERTYPE_IPV4)
        assert frame.is_multicast and not frame.is_broadcast

    def test_uids_are_unique(self):
        first = EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4)
        second = EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4)
        assert first.uid != second.uid

    def test_with_payload_keeps_identity(self):
        frame = EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4,
                              payload=b"one")
        other = frame.with_payload(b"two")
        assert other.uid == frame.uid
        assert other.payload == b"two"
        assert frame.payload == b"one"

    def test_str_mentions_kind(self):
        frame = EthernetFrame(dst=BROADCAST, src=H0, ethertype=ETHERTYPE_ARP)
        assert "ARP" in str(frame)


class TestFrameKindInterning:
    """The cached classification code (the dataplane's per-hop
    dispatch key) and its sharing/invalidation rules."""

    def test_arp_discovery_kind(self):
        from repro.frames.ethernet import KIND_ARP_DISCOVERY
        frame = EthernetFrame(dst=BROADCAST, src=H0, ethertype=ETHERTYPE_ARP,
                              payload=arp_proto.make_request(H0, IP0, IP1))
        assert frame.kind() == KIND_ARP_DISCOVERY

    def test_broadcast_non_arp_kind(self):
        from repro.frames.ethernet import KIND_MULTICAST
        frame = EthernetFrame(dst=BROADCAST, src=H0, ethertype=ETHERTYPE_IPV4)
        assert frame.kind() == KIND_MULTICAST

    def test_unicast_kind(self):
        from repro.frames.ethernet import KIND_UNICAST
        frame = EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4)
        assert frame.kind() == KIND_UNICAST

    def test_kind_is_classified_once(self):
        frame = EthernetFrame(dst=BROADCAST, src=H0, ethertype=ETHERTYPE_ARP,
                              payload=arp_proto.make_request(H0, IP0, IP1))
        code = frame.kind()
        frame.ethertype = ETHERTYPE_IPV4    # never done once sent
        assert frame.kind() == code  # no re-classification per hop

    def test_kind_stays_lazy_until_classified(self):
        frame = EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4)
        assert frame._kind is None
        code = frame.kind()
        assert frame._kind == code

    def test_with_payload_invalidates_cache(self):
        """A new payload can change the classification (e.g. an ARP
        ethertype with a non-ARP payload is not a discovery)."""
        from repro.frames.ethernet import (KIND_ARP_DISCOVERY,
                                           KIND_MULTICAST)
        frame = EthernetFrame(dst=BROADCAST, src=H0, ethertype=ETHERTYPE_ARP,
                              payload=arp_proto.make_request(H0, IP0, IP1))
        assert frame.kind() == KIND_ARP_DISCOVERY
        swapped = frame.with_payload(b"opaque")
        assert swapped.kind() == KIND_MULTICAST

    def test_no_instance_dict(self):
        frame = EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4)
        assert not hasattr(frame, "__dict__")


class TestArp:
    def test_request_fields(self):
        request = arp_proto.make_request(H0, IP0, IP1)
        assert request.is_request
        assert request.sha == H0 and request.spa == IP0
        assert request.tha == ZERO and request.tpa == IP1

    def test_reply_fields(self):
        reply = arp_proto.make_reply(H1, IP1, H0, IP0)
        assert reply.op == OP_REPLY
        assert reply.sha == H1 and reply.tha == H0

    def test_gratuitous_targets_self(self):
        probe = arp_proto.make_gratuitous(H0, IP0)
        assert probe.is_request and probe.tpa == probe.spa

    def test_wire_size(self):
        assert arp_proto.make_request(H0, IP0, IP1).wire_size == ARP_WIRE_SIZE

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            ArpPacket(op=3, sha=H0, spa=IP0, tha=H1, tpa=IP1)

    def test_str_readable(self):
        assert "who-has" in str(arp_proto.make_request(H0, IP0, IP1))
        assert "is-at" in str(arp_proto.make_reply(H1, IP1, H0, IP0))


class TestControl:
    def test_hello_is_link_local(self):
        hello = ctl_proto.make_hello(H0, seq=3)
        assert hello.is_hello and hello.ttl == 1

    def test_hello_multicast_is_group(self):
        assert HELLO_MULTICAST.is_multicast

    def test_path_request(self):
        msg = ctl_proto.make_path_request(H0, H0, H1, seq=7, ttl=8)
        assert msg.is_path_request and (msg.seq, msg.ttl) == (7, 8)

    def test_path_reply(self):
        msg = ctl_proto.make_path_reply(H0, H0, H1, seq=7, ttl=8)
        assert msg.is_path_reply and (msg.seq, msg.ttl) == (7, 8)

    def test_path_fail(self):
        msg = ctl_proto.make_path_fail(H0, H0, H1, seq=7, ttl=8)
        assert msg.is_path_fail and (msg.seq, msg.ttl) == (7, 8)

    def test_relayed_decrements_ttl(self):
        msg = ctl_proto.make_path_request(H0, H0, H1, seq=1, ttl=8)
        assert msg.relayed().ttl == msg.ttl - 1

    def test_relayed_preserves_identity(self):
        msg = ctl_proto.make_path_request(H0, H0, H1, seq=1, ttl=8)
        relayed = msg.relayed()
        assert (relayed.origin, relayed.source, relayed.target,
                relayed.seq) == (msg.origin, msg.source, msg.target, msg.seq)

    def test_relay_exhausted_rejected(self):
        msg = ArpPathControl(op=OP_PATH_REQUEST, origin=H0, source=H0,
                             target=H1, ttl=0)
        with pytest.raises(ValueError):
            msg.relayed()

    def test_rejects_bad_op(self):
        with pytest.raises(ValueError):
            ArpPathControl(op=99, origin=H0, source=H0, target=H1)

    def test_rejects_negative_seq(self):
        with pytest.raises(ValueError):
            ArpPathControl(op=OP_HELLO, origin=H0, source=H0, target=H1,
                           seq=-1)

    def test_wire_size(self):
        msg = ctl_proto.make_path_fail(H0, H0, H1, seq=0, ttl=8)
        assert msg.wire_size == CONTROL_WIRE_SIZE

    def test_op_names(self):
        assert ctl_proto.make_hello(H0).op_name == "HELLO"
        assert ctl_proto.make_path_request(H0, H0, H1, 0, 8).op_name \
            == "PATH_REQUEST"

    def test_frozen(self):
        msg = ctl_proto.make_hello(H0)
        with pytest.raises(AttributeError):
            msg.seq = 5


class TestIcmp:
    def test_request_reply_pairing(self):
        request = make_echo_request(ident=1, seq=2, payload=b"abc")
        reply = request.reply()
        assert reply.icmp_type == TYPE_ECHO_REPLY
        assert (reply.ident, reply.seq, reply.payload) == (1, 2, b"abc")

    def test_reply_of_reply_rejected(self):
        reply = IcmpEcho(icmp_type=TYPE_ECHO_REPLY, ident=1, seq=1)
        with pytest.raises(ValueError):
            reply.reply()

    def test_wire_size(self):
        echo = make_echo_request(ident=1, seq=1, payload=b"x" * 56)
        assert echo.wire_size == 8 + 56

    def test_rejects_bad_type(self):
        with pytest.raises(ValueError):
            IcmpEcho(icmp_type=3, ident=0, seq=0)

    def test_rejects_out_of_range_ident(self):
        with pytest.raises(ValueError):
            IcmpEcho(icmp_type=TYPE_ECHO_REPLY, ident=1 << 16, seq=0)


class TestUdp:
    def test_wire_size(self):
        dgram = UdpDatagram(sport=1000, dport=2000, payload=b"x" * 100)
        assert dgram.wire_size == UDP_HEADER_LEN + 100

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            UdpDatagram(sport=-1, dport=0)
        with pytest.raises(ValueError):
            UdpDatagram(sport=0, dport=1 << 16)

    def test_empty_payload(self):
        assert UdpDatagram(sport=1, dport=2).wire_size == UDP_HEADER_LEN
