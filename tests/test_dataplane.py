"""Tests for the shared Dataplane pipeline (switching/base.py).

Every bridge family must route identical inputs through the same
classification hooks — classification lives in one place, protocol
policy in the hooks. A golden-trace test pins ARP-Path discovery
filtering to the exact pre-refactor behaviour.
"""

import pytest

from repro.core.bridge import ArpPathBridge
from repro.frames import arp as arp_proto
from repro.frames.arp import ArpPacket
from repro.frames.control import ArpPathControl, HELLO_MULTICAST
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_ARPPATH,
                                   ETHERTYPE_BPDU, ETHERTYPE_IPV4,
                                   ETHERTYPE_LSP, EthernetFrame,
                                   KIND_ARP_DISCOVERY, KIND_UNICAST,
                                   STP_MULTICAST)
from repro.frames import control as ctl_proto
from repro.frames.ipv4 import IPv4Address
from repro.frames.mac import BROADCAST, MAC, mac_for_bridge, mac_for_host
from repro.netsim.engine import Simulator
from repro.spb.bridge import SpbBridge
from repro.spb.lsp import SPB_MULTICAST, SpbHello
from repro.stp.bpdu import TcnBpdu
from repro.stp.bridge import StpBridge
from repro.switching.base import Bridge
from repro.switching.learning import LearningSwitch
from repro.topology import arppath, netfpga_demo

SRC = mac_for_host(7)
DST = mac_for_host(8)
BRIDGE_MAC = mac_for_bridge(42)


def control_frame_for(family):
    """A frame of *family*'s own control protocol."""
    if family is ArpPathBridge:
        return EthernetFrame(dst=HELLO_MULTICAST, src=SRC,
                             ethertype=ETHERTYPE_ARPPATH,
                             payload=ctl_proto.make_hello(SRC, seq=1))
    if family is StpBridge:
        return EthernetFrame(dst=STP_MULTICAST, src=SRC,
                             ethertype=ETHERTYPE_BPDU,
                             payload=TcnBpdu(bridge=None))
    if family is SpbBridge:
        return EthernetFrame(dst=SPB_MULTICAST, src=SRC,
                             ethertype=ETHERTYPE_LSP,
                             payload=SpbHello(origin=SRC, seq=1))
    return None  # LearningSwitch has no control protocol


def arp_broadcast():
    pkt = arp_proto.make_request(SRC, IPv4Address(0x0A000001),
                                 IPv4Address(0x0A000002))
    return EthernetFrame(dst=BROADCAST, src=SRC, ethertype=ETHERTYPE_ARP,
                         payload=pkt)


def ip_broadcast():
    return EthernetFrame(dst=BROADCAST, src=SRC, ethertype=ETHERTYPE_IPV4,
                         payload=b"x")


def ip_unicast():
    return EthernetFrame(dst=DST, src=SRC, ethertype=ETHERTYPE_IPV4,
                         payload=b"x")


FAMILIES = [ArpPathBridge, SpbBridge, StpBridge, LearningSwitch]


def build(family):
    sim = Simulator(seed=1)
    bridge = family(sim, "B", BRIDGE_MAC)
    bridge.add_ports(2)
    return bridge


def spy_hooks(bridge):
    """Replace every pipeline hook with a recorder; admit gates pass."""
    calls = []
    for hook in ("on_control", "on_arp", "on_broadcast", "on_unicast"):
        setattr(bridge, hook,
                lambda port, frame, _name=hook: calls.append(_name))
    bridge.admit_frame = lambda port, frame: True
    bridge.admit_data = lambda port, frame: True
    return calls


class TestHookRouting:
    """Identical inputs reach the same hook in every family."""

    @pytest.mark.parametrize("family", FAMILIES,
                             ids=lambda f: f.__name__)
    def test_control_frame_hits_on_control(self, family):
        frame = control_frame_for(family)
        if frame is None:
            pytest.skip("family has no control protocol")
        bridge = build(family)
        calls = spy_hooks(bridge)
        bridge.handle_frame(bridge.ports[0], frame)
        assert calls == ["on_control"]

    @pytest.mark.parametrize("family", FAMILIES,
                             ids=lambda f: f.__name__)
    def test_arp_broadcast_hits_on_arp(self, family):
        bridge = build(family)
        calls = spy_hooks(bridge)
        bridge.handle_frame(bridge.ports[0], arp_broadcast())
        assert calls == ["on_arp"]

    @pytest.mark.parametrize("family", FAMILIES,
                             ids=lambda f: f.__name__)
    def test_ip_broadcast_hits_on_broadcast(self, family):
        bridge = build(family)
        calls = spy_hooks(bridge)
        bridge.handle_frame(bridge.ports[0], ip_broadcast())
        assert calls == ["on_broadcast"]

    @pytest.mark.parametrize("family", FAMILIES,
                             ids=lambda f: f.__name__)
    def test_unicast_hits_on_unicast(self, family):
        bridge = build(family)
        calls = spy_hooks(bridge)
        bridge.handle_frame(bridge.ports[0], ip_unicast())
        assert calls == ["on_unicast"]

    @pytest.mark.parametrize("family", FAMILIES,
                             ids=lambda f: f.__name__)
    def test_received_counter_increments(self, family):
        bridge = build(family)
        spy_hooks(bridge)
        bridge.handle_frame(bridge.ports[0], ip_unicast())
        assert bridge.counters.received == 1


class TestClassification:
    def test_default_on_arp_falls_back_to_broadcast(self):
        """Families without ARP special-casing treat ARP broadcasts as
        ordinary broadcast (STP/SPB/learning pre-refactor behaviour)."""
        bridge = build(LearningSwitch)
        seen = []
        bridge.on_broadcast = lambda port, frame: seen.append("broadcast")
        bridge.handle_frame(bridge.ports[0], arp_broadcast())
        assert seen == ["broadcast"]

    def test_unicast_arp_is_not_discovery(self):
        pkt = arp_proto.make_reply(SRC, IPv4Address(0x0A000001),
                                   DST, IPv4Address(0x0A000002))
        frame = EthernetFrame(dst=DST, src=SRC, ethertype=ETHERTYPE_ARP,
                              payload=pkt)
        assert frame.kind() == KIND_UNICAST
        assert arp_broadcast().kind() == KIND_ARP_DISCOVERY

    def test_control_payload_type_is_checked(self):
        """An ARP-Path-ethertype frame with a foreign payload is data,
        not control (pre-refactor fallthrough semantics)."""
        bridge = build(ArpPathBridge)
        calls = spy_hooks(bridge)
        impostor = EthernetFrame(dst=DST, src=SRC,
                                 ethertype=ETHERTYPE_ARPPATH,
                                 payload=b"not-a-control-message")
        bridge.handle_frame(bridge.ports[0], impostor)
        assert calls == ["on_unicast"]

    def test_admit_frame_gates_everything(self):
        """ArpPathBridge drops its own frames before classification."""
        bridge = build(ArpPathBridge)
        calls = []
        for hook in ("on_control", "on_arp", "on_broadcast", "on_unicast"):
            setattr(bridge, hook,
                    lambda port, frame, _name=hook: calls.append(_name))
        own = EthernetFrame(dst=DST, src=BRIDGE_MAC,
                            ethertype=ETHERTYPE_IPV4, payload=b"")
        bridge.handle_frame(bridge.ports[0], own)
        assert calls == []
        assert bridge.counters.received == 1

    def test_stp_admit_data_gate_blocks_data_not_control(self):
        """A blocking STP port drops data but still processes BPDUs."""
        bridge = build(StpBridge)
        data_calls = []
        bridge.on_broadcast = \
            lambda port, frame: data_calls.append("broadcast")
        control_calls = []
        bridge.on_control = lambda port, frame: control_calls.append("bpdu")
        # Ports start DISABLED (not started): can_learn is False.
        bridge.handle_frame(bridge.ports[0], ip_broadcast())
        assert data_calls == []
        assert bridge.stp_counters.discards_not_forwarding == 1
        bridge.handle_frame(bridge.ports[0], control_frame_for(StpBridge))
        assert control_calls == ["bpdu"]


class TestDiscoveryFilteringGolden:
    """ARP-Path discovery filtering is byte-identical to the
    pre-refactor dispatch ladder.

    The golden values below were captured from the seed implementation
    (per-class dispatch in ArpPathBridge.handle_frame) on the NetFPGA
    demo topology with seed 42: one A→B ping after a 5 s warm-up. The
    race outcome — who filters how many slow copies, which port each
    bridge locks, the frame economy on the wire — must not move.
    """

    GOLDEN = {
        "NF1": {"discovery_frames": 2, "discovery_filtered": 1,
                "filtered": 1, "flooded_copies": 3, "forwarded": 3,
                "port_a": "NF1.p3", "port_b": "NF1.p0"},
        "NF2": {"discovery_frames": 1, "discovery_filtered": 0,
                "filtered": 0, "flooded_copies": 1, "forwarded": 3,
                "port_a": "NF2.p0", "port_b": "NF2.p1"},
        "NF3": {"discovery_frames": 3, "discovery_filtered": 2,
                "filtered": 2, "flooded_copies": 3, "forwarded": 3,
                "port_a": "NF3.p0", "port_b": "NF3.p3"},
        "NF4": {"discovery_frames": 2, "discovery_filtered": 1,
                "filtered": 1, "flooded_copies": 1, "forwarded": 0,
                "port_a": None, "port_b": None},
    }
    GOLDEN_TRACER = {"sent": 117, "delivered": 105}
    GOLDEN_RTT_NS = 98624

    def test_demo_race_matches_golden_trace(self):
        sim = Simulator(seed=42, trace_hops=True)
        net = netfpga_demo(sim, arppath())
        net.run(5.0)
        rtts = []
        a, b = net.host("A"), net.host("B")
        a.ping(b.ip, on_reply=lambda seq, rtt: rtts.append(rtt))
        net.run(2.0)

        assert rtts and round(rtts[0] * 1e9) == self.GOLDEN_RTT_NS
        assert sim.tracer.frames_sent == self.GOLDEN_TRACER["sent"]
        assert sim.tracer.frames_delivered == self.GOLDEN_TRACER["delivered"]
        for name, want in self.GOLDEN.items():
            bridge = net.bridge(name)
            apc = bridge.apc.snapshot()
            assert apc["discovery_frames"] == want["discovery_frames"], name
            assert apc["discovery_filtered"] == want["discovery_filtered"], \
                name
            assert bridge.counters.filtered == want["filtered"], name
            assert bridge.counters.flooded_copies == want["flooded_copies"], \
                name
            assert bridge.counters.forwarded == want["forwarded"], name
            entry_a = bridge.table.get(a.mac, sim.now)
            entry_b = bridge.table.get(b.mac, sim.now)
            assert (entry_a.port.name if entry_a else None) \
                == want["port_a"], name
            assert (entry_b.port.name if entry_b else None) \
                == want["port_b"], name
            if entry_a is not None:
                assert entry_a.is_learnt
