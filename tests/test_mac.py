"""Tests for repro.frames.mac."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frames.mac import (BROADCAST, MAC, ZERO, mac_for_bridge,
                              mac_for_host)


class TestConstruction:
    def test_from_colon_string(self):
        assert MAC("00:11:22:33:44:55").value == 0x001122334455

    def test_from_dash_string(self):
        assert MAC("00-11-22-33-44-55").value == 0x001122334455

    def test_from_bare_string(self):
        assert MAC("001122334455").value == 0x001122334455

    def test_from_uppercase(self):
        assert MAC("AA:BB:CC:DD:EE:FF").value == 0xAABBCCDDEEFF

    def test_from_int(self):
        assert MAC(0xFFFFFFFFFFFF) == BROADCAST

    def test_from_bytes(self):
        assert MAC(b"\x00\x11\x22\x33\x44\x55").value == 0x001122334455

    def test_from_mac_copies(self):
        original = MAC("00:11:22:33:44:55")
        assert MAC(original) == original

    def test_strips_whitespace(self):
        assert MAC("  00:11:22:33:44:55  ").value == 0x001122334455

    def test_rejects_mixed_separators(self):
        with pytest.raises(ValueError):
            MAC("00:11-22:33-44:55")

    def test_rejects_short_string(self):
        with pytest.raises(ValueError):
            MAC("00:11:22:33:44")

    def test_rejects_long_string(self):
        with pytest.raises(ValueError):
            MAC("00:11:22:33:44:55:66")

    def test_rejects_negative_int(self):
        with pytest.raises(ValueError):
            MAC(-1)

    def test_rejects_oversized_int(self):
        with pytest.raises(ValueError):
            MAC(1 << 48)

    def test_rejects_wrong_byte_count(self):
        with pytest.raises(ValueError):
            MAC(b"\x00\x11\x22")

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            MAC(3.14)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            MAC("not-a-mac")


class TestProperties:
    def test_broadcast_is_broadcast(self):
        assert BROADCAST.is_broadcast

    def test_broadcast_is_multicast(self):
        assert BROADCAST.is_multicast

    def test_broadcast_not_unicast(self):
        assert not BROADCAST.is_unicast

    def test_zero_is_unicast(self):
        assert ZERO.is_unicast

    def test_group_bit_means_multicast(self):
        assert MAC("01:00:5e:00:00:01").is_multicast

    def test_group_bit_clear_means_unicast(self):
        assert MAC("00:11:22:33:44:55").is_unicast

    def test_round_trip_bytes(self):
        original = MAC("de:ad:be:ef:00:01")
        assert MAC(original.to_bytes()) == original

    def test_str_is_canonical(self):
        assert str(MAC("AA-BB-CC-DD-EE-FF")) == "aa:bb:cc:dd:ee:ff"

    def test_repr_round_trips_via_str(self):
        original = MAC("aa:bb:cc:dd:ee:ff")
        assert "aa:bb:cc:dd:ee:ff" in repr(original)

    def test_int_conversion(self):
        assert int(MAC("00:00:00:00:00:2a")) == 42


class TestOrdering:
    def test_equality(self):
        assert MAC("00:11:22:33:44:55") == MAC("001122334455")

    def test_inequality_other_type(self):
        assert MAC(0) != "00:00:00:00:00:00"

    def test_hashable_and_stable(self):
        table = {MAC("00:00:00:00:00:01"): "a"}
        assert table[MAC(1)] == "a"

    def test_total_order(self):
        low, high = MAC(1), MAC(2)
        assert low < high
        assert low <= high
        assert high > low
        assert high >= low

    def test_sortable(self):
        macs = [MAC(3), MAC(1), MAC(2)]
        assert sorted(macs) == [MAC(1), MAC(2), MAC(3)]


class TestDeterministicAllocators:
    def test_host_prefix(self):
        assert str(mac_for_host(0)).startswith("02:00:00")

    def test_bridge_prefix(self):
        assert str(mac_for_bridge(0)).startswith("02:00:01")

    def test_host_and_bridge_never_collide(self):
        hosts = {mac_for_host(i) for i in range(256)}
        bridges = {mac_for_bridge(i) for i in range(256)}
        assert not hosts & bridges

    def test_hosts_are_unicast_local(self):
        sample = mac_for_host(7)
        assert sample.is_unicast and sample.to_bytes()[0] & 0x02

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mac_for_host(1 << 24)
        with pytest.raises(ValueError):
            mac_for_bridge(-1)


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_int_round_trip(self, value):
        assert MAC(value).value == value

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_str_round_trip(self, value):
        original = MAC(value)
        assert MAC(str(original)) == original

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_bytes_round_trip(self, value):
        original = MAC(value)
        assert MAC(original.to_bytes()) == original

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_multicast_matches_group_bit(self, value):
        assert MAC(value).is_multicast == bool(value >> 40 & 0x01)
