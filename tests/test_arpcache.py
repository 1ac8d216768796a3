"""Tests for the host-side ARP cache."""

import pytest

from repro.frames.ipv4 import IPv4Address, ip_for_host
from repro.frames.mac import mac_for_host
from repro.hosts.arpcache import ArpCache

IP0, IP1 = ip_for_host(0), ip_for_host(1)
M0, M1 = mac_for_host(0), mac_for_host(1)


class TestLookups:
    def test_miss_returns_none(self):
        cache = ArpCache()
        assert cache.lookup(IP0, now=0.0) is None

    def test_insert_then_hit(self):
        cache = ArpCache()
        cache.insert(IP0, M0, now=0.0)
        assert cache.lookup(IP0, now=1.0) == M0

    def test_expiry(self):
        cache = ArpCache(timeout=10.0)
        cache.insert(IP0, M0, now=0.0)
        assert cache.lookup(IP0, now=10.0) is None

    def test_refresh_extends(self):
        cache = ArpCache(timeout=10.0)
        cache.insert(IP0, M0, now=0.0)
        cache.insert(IP0, M0, now=8.0)
        assert cache.lookup(IP0, now=15.0) == M0

    def test_rebinding_updates_mac(self):
        cache = ArpCache()
        cache.insert(IP0, M0, now=0.0)
        cache.insert(IP0, M1, now=1.0)
        assert cache.lookup(IP0, now=2.0) == M1

    def test_invalidate(self):
        cache = ArpCache()
        cache.insert(IP0, M0, now=0.0)
        cache.invalidate(IP0)
        assert cache.lookup(IP0, now=0.0) is None

    def test_flush(self):
        cache = ArpCache()
        cache.insert(IP0, M0, now=0.0)
        cache.insert(IP1, M1, now=0.0)
        cache.flush()
        assert len(cache) == 0

    def test_contains_and_len(self):
        cache = ArpCache()
        cache.insert(IP0, M0, now=0.0)
        assert IP0 in cache and IP1 not in cache
        assert len(cache) == 1

    def test_insert_returns_the_mac(self):
        cache = ArpCache()
        assert cache.insert(IP0, M0, now=0.0) == M0

    def test_refresh_is_in_place(self):
        cache = ArpCache(timeout=10.0)
        cache.insert(IP0, M0, now=0.0)
        cache.insert(IP1, M1, now=0.0)
        entry = cache._entries[IP0.value]
        cache.insert(IP0, M1, now=5.0)
        assert cache._entries[IP0.value] is entry
        assert (entry.mac, entry.expires) == (M1, 15.0)
        assert list(cache._entries) == [IP0.value, IP1.value]

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_binding_born_expired_is_not_kept(self, timeout):
        """``timeout <= 0``: an insert followed by a lookup at the same
        instant has always left no entry behind; the insert alone now
        does, and drops an older binding for the address too."""
        cache = ArpCache(timeout=timeout)
        assert cache.insert(IP0, M0, now=1.0) is None
        assert IP0 not in cache and len(cache) == 0
        assert cache.lookup(IP0, now=1.0) is None

        live = ArpCache(timeout=10.0)
        live.insert(IP0, M0, now=0.0)
        live.timeout = timeout
        assert live.insert(IP0, M1, now=1.0) is None
        assert len(live) == 0


class TestPendingQueue:
    def test_park_and_take(self):
        cache = ArpCache()
        cache.park(IP0, "packet-1")
        cache.park(IP0, "packet-2")
        assert cache.take_pending(IP0) == ["packet-1", "packet-2"]
        assert cache.take_pending(IP0) == []

    def test_overflow_drops(self):
        cache = ArpCache(max_pending_per_ip=2)
        for index in range(4):
            cache.park(IP0, index)
        assert cache.take_pending(IP0) == [0, 1]
        assert cache.dropped_pending == 2

    def test_abandon_counts_drops(self):
        cache = ArpCache()
        cache.park(IP0, "a")
        cache.park(IP0, "b")
        assert cache.abandon(IP0) == 2
        assert cache.dropped_pending == 2

    def test_abandon_unknown_is_zero(self):
        cache = ArpCache()
        assert cache.abandon(IP0) == 0

    def test_pending_for(self):
        cache = ArpCache()
        assert cache.pending_for(IP0) is None
        cache.park(IP0, "a")
        assert cache.pending_for(IP0) is not None

    def test_pending_ips(self):
        cache = ArpCache()
        cache.park(IP0, "a")
        cache.park(IP1, "b")
        assert cache.pending_ips == [IP0, IP1]
        assert all(isinstance(ip, IPv4Address) for ip in cache.pending_ips)

    def test_take_cancels_retry_event(self):
        class FakeEvent:
            cancelled = False

            def cancel(self):
                self.cancelled = True

        cache = ArpCache()
        pending = cache.park(IP0, "a")
        pending.retry_event = FakeEvent()
        cache.take_pending(IP0)
        assert pending.retry_event.cancelled
