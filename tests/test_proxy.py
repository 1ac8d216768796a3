"""Tests for the ARP proxy (paper §2.2 broadcast suppression)."""

import pytest

from repro.core.proxy import ArpProxy
from repro.frames import arp as arp_proto
from repro.frames.ipv4 import IPv4Address, ip_for_host
from repro.frames.mac import mac_for_host

M0, M1 = mac_for_host(0), mac_for_host(1)
IP0, IP1 = ip_for_host(0), ip_for_host(1)


@pytest.fixture
def proxy():
    return ArpProxy(timeout=10.0)


class TestSnooping:
    def test_snoop_learns_sender(self, proxy):
        proxy.snoop(arp_proto.make_request(M0, IP0, IP1), now=0.0)
        assert proxy.lookup(IP0, now=1.0) == M0

    def test_snoop_reply_learns_sender(self, proxy):
        proxy.snoop(arp_proto.make_reply(M1, IP1, M0, IP0), now=0.0)
        assert proxy.lookup(IP1, now=1.0) == M1

    def test_snoop_ignores_zero_ip(self, proxy):
        probe = arp_proto.make_request(M0, IPv4Address(0), IP1)
        proxy.snoop(probe, now=0.0)
        assert len(proxy) == 0

    def test_binding_expires(self, proxy):
        proxy.snoop(arp_proto.make_request(M0, IP0, IP1), now=0.0)
        assert proxy.lookup(IP0, now=10.0) is None

    def test_snoop_refreshes(self, proxy):
        proxy.snoop(arp_proto.make_request(M0, IP0, IP1), now=0.0)
        proxy.snoop(arp_proto.make_request(M0, IP0, IP1), now=8.0)
        assert proxy.lookup(IP0, now=15.0) == M0


class TestAnswering:
    def test_cache_hit_answers(self, proxy):
        proxy.snoop(arp_proto.make_reply(M1, IP1, M0, IP0), now=0.0)
        request = arp_proto.make_request(M0, IP0, IP1)
        answer = proxy.answer(request, now=1.0)
        assert answer is not None
        assert answer.op == arp_proto.OP_REPLY
        assert answer.sha == M1 and answer.spa == IP1
        assert answer.tha == M0 and answer.tpa == IP0

    def test_cache_miss_returns_none(self, proxy):
        request = arp_proto.make_request(M0, IP0, IP1)
        assert proxy.answer(request, now=0.0) is None
        assert proxy.counters.misses == 1

    def test_gratuitous_never_answered(self, proxy):
        proxy.snoop(arp_proto.make_reply(M0, IP0, M1, IP1), now=0.0)
        probe = arp_proto.make_gratuitous(M0, IP0)
        assert proxy.answer(probe, now=0.0) is None

    def test_replies_never_answered(self, proxy):
        proxy.snoop(arp_proto.make_reply(M1, IP1, M0, IP0), now=0.0)
        reply = arp_proto.make_reply(M0, IP0, M1, IP1)
        assert proxy.answer(reply, now=0.0) is None

    def test_self_resolution_not_answered(self, proxy):
        """Asking for an IP that maps to your own MAC (duplicate address
        detection style) gets no proxy answer."""
        proxy.snoop(arp_proto.make_request(M0, IP0, IP1), now=0.0)
        request = arp_proto.make_request(M0, IP1, IP0)
        # Target IP0 maps to M0 == requester MAC.
        assert proxy.answer(request, now=0.0) is None

    def test_answer_counter(self, proxy):
        proxy.snoop(arp_proto.make_reply(M1, IP1, M0, IP0), now=0.0)
        proxy.answer(arp_proto.make_request(M0, IP0, IP1), now=0.0)
        assert proxy.counters.answered == 1

