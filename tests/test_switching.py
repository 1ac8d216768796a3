"""Tests for the forwarding table and the plain learning switch."""

import pytest

from repro.frames.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.frames.mac import BROADCAST, mac_for_host
from repro.netsim.engine import Simulator
from repro.netsim.errors import InvariantError
from repro.switching.table import ForwardingTable
from repro.topology import learning, ring
from repro.topology.builder import Network

M0, M1 = mac_for_host(0), mac_for_host(1)


class FakePort:
    def __init__(self, index):
        self.index = index


class TestForwardingTable:
    def test_learn_then_lookup(self):
        fdb = ForwardingTable(aging_time=10.0)
        port = FakePort(0)
        fdb.learn(M0, port, now=0.0)
        assert fdb.lookup(M0, now=5.0) is port

    def test_aging(self):
        fdb = ForwardingTable(aging_time=10.0)
        fdb.learn(M0, FakePort(0), now=0.0)
        assert fdb.lookup(M0, now=10.0) is None

    def test_learning_refreshes_age(self):
        fdb = ForwardingTable(aging_time=10.0)
        port = FakePort(0)
        fdb.learn(M0, port, now=0.0)
        fdb.learn(M0, port, now=9.0)
        assert fdb.lookup(M0, now=15.0) is port

    def test_move_counted(self):
        fdb = ForwardingTable()
        fdb.learn(M0, FakePort(0), now=0.0)
        fdb.learn(M0, FakePort(1), now=0.0)
        assert fdb.moves == 1

    def test_learn_over_expired_unreaped_entry_is_not_a_move(self):
        """No lookup reaped the old entry, yet it is absent: counters
        must not depend on when memory was reclaimed."""
        fdb = ForwardingTable(aging_time=10.0)
        port = FakePort(1)
        fdb.learn(M0, FakePort(0), now=0.0)
        fdb.learn(M0, port, now=10.0)
        assert (fdb.learns, fdb.moves) == (2, 0)
        assert fdb.lookup(M0, now=15.0) is port

    def test_flush_port(self):
        fdb = ForwardingTable()
        port_a, port_b = FakePort(0), FakePort(1)
        fdb.learn(M0, port_a, now=0.0)
        fdb.learn(M1, port_b, now=0.0)
        assert fdb.flush_port(port_a) == 1
        assert fdb.lookup(M0, now=0.0) is None
        assert fdb.lookup(M1, now=0.0) is port_b

    def test_expire_sweep(self):
        fdb = ForwardingTable(aging_time=5.0)
        fdb.learn(M0, FakePort(0), now=0.0)
        fdb.learn(M1, FakePort(1), now=3.0)
        assert fdb.expire(now=5.0) == 1
        assert M1 in fdb

    def test_temporary_aging_change(self):
        fdb = ForwardingTable(aging_time=300.0)
        fdb.set_aging(15.0)
        fdb.learn(M0, FakePort(0), now=0.0)
        assert fdb.lookup(M0, now=20.0) is None
        fdb.restore_aging()
        assert fdb.aging_time == 300.0

    def test_macs_on(self):
        fdb = ForwardingTable()
        port = FakePort(0)
        fdb.learn(M0, port, now=0.0)
        fdb.learn(M1, port, now=0.0)
        assert set(fdb.macs_on(port)) == {M0, M1}


@pytest.fixture
def switch_lan(sim):
    net = Network(sim, bridge_factory=learning())
    net.add_bridge("SW")
    for name in ("H0", "H1", "H2"):
        net.add_host(name)
        net.attach(name, "SW", latency=1e-6)
    net.start()
    return net


class TestLearningSwitch:
    def test_unknown_unicast_flooded(self, switch_lan):
        net = switch_lan
        h0 = net.host("H0")
        frame = EthernetFrame(dst=net.host("H1").mac, src=h0.mac,
                              ethertype=ETHERTYPE_IPV4, payload=b"x")
        h0.port.send(frame)
        net.run(0.1)
        switch = net.bridge("SW")
        assert switch.counters.flooded_frames == 1
        assert switch.counters.flooded_copies == 2  # all but ingress

    def test_known_unicast_forwarded_not_flooded(self, switch_lan):
        net = switch_lan
        h0, h1 = net.host("H0"), net.host("H1")
        # H1 talks first so the switch learns it.
        h1.port.send(EthernetFrame(dst=h0.mac, src=h1.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        net.run(0.1)
        switch = net.bridge("SW")
        flooded_before = switch.counters.flooded_frames
        h0.port.send(EthernetFrame(dst=h1.mac, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        net.run(0.1)
        assert switch.counters.flooded_frames == flooded_before
        assert switch.counters.forwarded >= 1

    def test_same_port_frame_filtered(self, switch_lan):
        net = switch_lan
        h0 = net.host("H0")
        switch = net.bridge("SW")
        # Teach the switch that both MACs live on H0's port.
        h0.port.send(EthernetFrame(dst=M1, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        net.run(0.1)
        h0.port.send(EthernetFrame(dst=h0.mac, src=M1,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        net.run(0.1)
        h0.port.send(EthernetFrame(dst=M1, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        net.run(0.1)
        assert switch.counters.filtered >= 1

    def test_broadcast_always_flooded(self, switch_lan):
        net = switch_lan
        h0 = net.host("H0")
        h0.port.send(EthernetFrame(dst=BROADCAST, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        net.run(0.1)
        assert net.bridge("SW").counters.flooded_frames == 1

    def test_carrier_loss_flushes(self, switch_lan):
        net = switch_lan
        h0 = net.host("H0")
        h0.port.send(EthernetFrame(dst=M1, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        net.run(0.1)
        switch = net.bridge("SW")
        assert len(switch.fdb) == 1
        net.link_between("H0", "SW").take_down()
        net.run(0.1)
        assert len(switch.fdb) == 0


class TestStormOnLoop:
    @staticmethod
    def melt_down():
        sim = Simulator(seed=0)
        net = ring(sim, learning(), 4)
        net.start()
        net.host("H0").gratuitous_arp()
        sim.run(until=0.05, max_events=100_000)
        return sim

    def test_learning_switches_melt_down_on_a_ring(self, invariant_checks):
        """The didactic failure ARP-Path exists to avoid: broadcast on a
        loop without a control plane storms forever."""
        with pytest.raises(InvariantError, match="^loop: ") as caught:
            self.melt_down()
        assert caught.value.invariant == "loop" and caught.value.records
        invariant_checks.expected(caught.value)
        invariant_checks.on = False         # the same storm, unchecked
        sim = self.melt_down()
        # One broadcast became an unbounded number of transmissions.
        assert sim.tracer.frames_sent > 5_000
