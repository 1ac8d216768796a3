"""Tests for repro.frames.ipv4."""

import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.frames.ipv4 import (DEFAULT_TTL, IPV4_HEADER_LEN, IPv4Address,
                               IPv4Packet, PROTO_ICMP, PROTO_UDP, ip_for_host,
                               payload_size)
from repro.frames.udp import UdpDatagram


class TestAddress:
    def test_from_dotted_quad(self):
        assert IPv4Address("10.0.0.1").value == 0x0A000001

    def test_from_int(self):
        assert str(IPv4Address(0x0A000001)) == "10.0.0.1"

    def test_from_bytes(self):
        assert IPv4Address(b"\x0a\x00\x00\x01").value == 0x0A000001

    def test_copy_constructor(self):
        original = IPv4Address("192.168.1.1")
        assert IPv4Address(original) == original

    def test_rejects_three_octets(self):
        with pytest.raises(ValueError):
            IPv4Address("10.0.1")

    def test_rejects_big_octet(self):
        with pytest.raises(ValueError):
            IPv4Address("10.0.0.256")

    def test_rejects_negative_int(self):
        with pytest.raises(ValueError):
            IPv4Address(-1)

    def test_rejects_oversize_int(self):
        with pytest.raises(ValueError):
            IPv4Address(1 << 32)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            IPv4Address("a.b.c.d")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            IPv4Address(1.5)

    def test_multicast_range(self):
        assert IPv4Address("224.0.0.1").is_multicast
        assert IPv4Address("239.255.255.255").is_multicast
        assert not IPv4Address("223.255.255.255").is_multicast

    def test_limited_broadcast(self):
        assert IPv4Address("255.255.255.255").is_broadcast
        assert not IPv4Address("255.255.255.254").is_broadcast

    def test_ordering_and_hash(self):
        a, b = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        assert a < b
        assert len({a, IPv4Address("10.0.0.1")}) == 1

    def test_bytes_round_trip(self):
        original = IPv4Address("172.16.254.3")
        assert IPv4Address(original.value.to_bytes(4, "big")) == original

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_str_round_trip(self, value):
        original = IPv4Address(value)
        assert IPv4Address(str(original)) == original

    def test_hash_is_the_value(self):
        assert hash(IPv4Address("10.0.0.1")) == 0x0A000001

    def test_hash_and_set_order_ignore_the_hash_seed(self):
        """Two interpreters under different ``PYTHONHASHSEED``s agree on
        an address's hash and on the iteration order of a set of them."""
        probe = ("from repro.frames.ipv4 import IPv4Address as A\n"
                 "ips = [A('10.0.0.%d' % i) for i in (9, 1, 200, 3, 77)]\n"
                 "print(hash(ips[1]), [str(ip) for ip in set(ips)])\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(subprocess.run(
                [sys.executable, "-c", probe], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(outputs) == 1, outputs


class TestHostAllocator:
    def test_first_host(self):
        assert str(ip_for_host(0)) == "10.0.0.1"

    def test_sequential(self):
        assert ip_for_host(1).value == ip_for_host(0).value + 1

    def test_custom_network(self):
        assert str(ip_for_host(0, network="192.168.0.0")) == "192.168.0.1"


class TestPacket:
    def test_wire_size_includes_header(self):
        packet = IPv4Packet(src=ip_for_host(0), dst=ip_for_host(1),
                            proto=PROTO_UDP, payload=b"x" * 10)
        assert packet.wire_size == IPV4_HEADER_LEN + 10

    def test_wire_size_uses_payload_object(self):
        dgram = UdpDatagram(sport=1, dport=2, payload=b"abc")
        packet = IPv4Packet(src=ip_for_host(0), dst=ip_for_host(1),
                            proto=PROTO_UDP, payload=dgram)
        assert packet.wire_size == IPV4_HEADER_LEN + dgram.wire_size

    def test_default_ttl(self):
        packet = IPv4Packet(src=ip_for_host(0), dst=ip_for_host(1),
                            proto=PROTO_ICMP, payload=b"")
        assert packet.ttl == DEFAULT_TTL

    def test_decrement(self):
        packet = IPv4Packet(src=ip_for_host(0), dst=ip_for_host(1),
                            proto=PROTO_ICMP, payload=b"", ttl=2)
        assert packet.decremented().ttl == 1

    def test_decrement_exhausted(self):
        packet = IPv4Packet(src=ip_for_host(0), dst=ip_for_host(1),
                            proto=PROTO_ICMP, payload=b"", ttl=0)
        with pytest.raises(ValueError):
            packet.decremented()

    def test_decrement_is_a_copy(self):
        packet = IPv4Packet(src=ip_for_host(0), dst=ip_for_host(1),
                            proto=PROTO_ICMP, payload=b"", ttl=5)
        assert packet.decremented() is not packet
        assert packet.ttl == 5


class TestPayloadSize:
    def test_none_is_zero(self):
        assert payload_size(None) == 0

    def test_bytes_length(self):
        assert payload_size(b"hello") == 5

    def test_bytearray_length(self):
        assert payload_size(bytearray(7)) == 7

    def test_wire_size_attribute_wins(self):
        class Sized:
            wire_size = 99

        assert payload_size(Sized()) == 99

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            payload_size(3.14)
