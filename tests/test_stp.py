"""Tests for the 802.1D spanning tree baseline."""

import pytest

from repro.frames.mac import MAC, mac_for_bridge
from repro.netsim.engine import Simulator
from repro.stp.bpdu import BridgeId, ConfigBpdu, PortId, TcnBpdu
from repro.stp.bridge import PortRole, PortState, StpBridge, StpTimers
from repro.topology import netfpga_demo, pair, ring, stp, stp_scaled
from repro.topology.builder import Network

from repro.testing import ping_once

FAST = StpTimers().scaled(0.1)


def fast_stp():
    return stp(timers=FAST)


@pytest.fixture
def stp_ring(sim):
    """4 STP bridges in a ring (timers x0.1), fully converged."""
    net = ring(sim, fast_stp(), 4)
    net.run(6.0)
    return net


class TestIdentifiers:
    def test_bridge_id_priority_dominates(self):
        low_pri = BridgeId(0x1000, mac_for_bridge(9))
        high_pri = BridgeId(0x8000, mac_for_bridge(0))
        assert low_pri < high_pri

    def test_bridge_id_mac_breaks_ties(self):
        a = BridgeId(0x8000, mac_for_bridge(0))
        b = BridgeId(0x8000, mac_for_bridge(1))
        assert a < b

    def test_bridge_id_validation(self):
        with pytest.raises(ValueError):
            BridgeId(-1, mac_for_bridge(0))
        with pytest.raises(ValueError):
            BridgeId(1 << 16, mac_for_bridge(0))

    def test_port_id_ordering(self):
        assert PortId(0x80, 1) < PortId(0x80, 2)
        assert PortId(0x10, 9) < PortId(0x80, 0)

    def test_vector_comparison_order(self):
        root_a = BridgeId(0x8000, mac_for_bridge(0))
        root_b = BridgeId(0x8000, mac_for_bridge(1))
        bridge = BridgeId(0x8000, mac_for_bridge(5))
        port = PortId(0x80, 0)
        better_root = ConfigBpdu(root_a, 100, bridge, port)
        worse_root = ConfigBpdu(root_b, 0, bridge, port)
        assert better_root.key < worse_root.key

    def test_vector_cost_breaks_root_ties(self):
        root = BridgeId(0x8000, mac_for_bridge(0))
        bridge = BridgeId(0x8000, mac_for_bridge(5))
        port = PortId(0x80, 0)
        cheap = ConfigBpdu(root, 4, bridge, port)
        dear = ConfigBpdu(root, 8, bridge, port)
        assert cheap.key < dear.key


class TestRootElection:
    def test_lowest_mac_wins(self, stp_ring):
        net = stp_ring
        roots = {net.bridge(n).root_id for n in ("B0", "B1", "B2", "B3")}
        assert len(roots) == 1
        assert roots.pop() == net.bridge("B0").bid

    def test_root_has_no_root_port(self, stp_ring):
        assert stp_ring.bridge("B0").root_port is None
        assert stp_ring.bridge("B0").is_root

    def test_non_root_has_root_port(self, stp_ring):
        for name in ("B1", "B2", "B3"):
            assert stp_ring.bridge(name).root_port is not None

    def test_priority_overrides_mac(self, sim):
        net = Network(sim)
        net.add_bridge("LOW", factory=stp(timers=FAST))
        net.add_bridge("BOSS", factory=stp(timers=FAST, priority=0x1000))
        net.link("LOW", "BOSS")
        net.start()
        net.run(3.0)
        assert net.bridge("LOW").root_id == net.bridge("BOSS").bid

    def test_root_costs_reflect_distance(self, stp_ring):
        net = stp_ring
        assert net.bridge("B0").root_cost == 0
        assert net.bridge("B1").root_cost == 4
        assert net.bridge("B3").root_cost == 4
        assert net.bridge("B2").root_cost == 8


class TestTreeShape:
    def test_exactly_one_blocked_port_on_ring(self, stp_ring):
        blocked = [info for name in ("B0", "B1", "B2", "B3")
                   for info in stp_ring.bridge(name).ports_in(
                       PortRole.ALTERNATE)]
        assert len(blocked) == 1

    def test_blocked_port_does_not_forward(self, stp_ring):
        net = stp_ring
        blocked = [info for name in ("B0", "B1", "B2", "B3")
                   for info in net.bridge(name).ports_in(
                       PortRole.ALTERNATE)]
        assert blocked[0].state is PortState.BLOCKING

    def test_host_ports_are_designated_forwarding(self, stp_ring):
        net = stp_ring
        for host_name in net.hosts:
            bridge = net.bridge_for_host(host_name)
            port = net.host(host_name).port.peer
            assert bridge.port_role(port) is PortRole.DESIGNATED
            assert bridge.port_state(port) is PortState.FORWARDING

    def test_tree_summary_structure(self, stp_ring):
        summary = stp_ring.bridge("B1").tree_summary()
        assert summary["root"] == str(stp_ring.bridge("B0").bid)
        assert set(summary) == {"bridge", "root", "root_cost", "root_port",
                                "roles", "states"}


class TestForwardingBehaviour:
    def test_connectivity_after_convergence(self, stp_ring):
        assert ping_once(stp_ring, "H0", "H2") is not None

    def test_no_storm_on_ring(self, stp_ring):
        sim = stp_ring.sim
        sent_before = sim.tracer.frames_sent
        stp_ring.host("H0").gratuitous_arp()
        stp_ring.run(1.0)
        # Bounded: the broadcast plus ongoing BPDUs, not a storm.
        assert sim.tracer.frames_sent - sent_before < 200

    def test_forwarding_follows_tree_not_latency(self, sim):
        """On the demo topology STP uses the 1-hop high-latency cross."""
        net = netfpga_demo(sim, fast_stp())
        net.run(6.0)
        rtt = ping_once(net, "A", "B")
        assert rtt is not None
        assert rtt > 900e-6  # ~2x500us cross latency dominates

    def test_learning_only_when_allowed(self, sim):
        net = pair(sim, fast_stp())
        net.start()
        # Immediately after start ports are LISTENING: no learning yet.
        h0 = net.host("H0")
        h0.gratuitous_arp()
        net.run(0.01)
        b0 = net.bridge("B0")
        assert len(b0.fdb) == 0


class TestFailover:
    def test_link_failure_reconverges(self, stp_ring):
        net = stp_ring
        sim = net.sim
        assert ping_once(net, "H0", "H2") is not None
        # Cut a tree link on the H0->H2 path and wait out reconvergence
        # (2x forward delay at scaled timers = 3s, plus margin).
        net.link_between("B0", "B1").take_down()
        net.run(5.0)
        assert ping_once(net, "H0", "H2") is not None

    def test_blocked_port_takes_over(self, stp_ring):
        net = stp_ring
        blocked_before = [info for name in ("B0", "B1", "B2", "B3")
                          for info in net.bridge(name).ports_in(
                              PortRole.ALTERNATE)]
        assert len(blocked_before) == 1
        net.link_between("B0", "B1").take_down()
        net.run(5.0)
        blocked_after = [info for name in ("B0", "B1", "B2", "B3")
                         for info in net.bridge(name).ports_in(
                             PortRole.ALTERNATE)]
        assert blocked_after == []  # no redundancy left, nothing blocked

    def test_root_death_triggers_new_election(self, sim):
        net = ring(sim, fast_stp(), 4)
        net.run(6.0)
        # Kill every link of the root (power failure).
        for link in list(net.links.values()):
            if link.port_a.node.name == "B0" or link.port_b.node.name == "B0":
                link.take_down()
        net.run(8.0)
        # Remaining bridges agree on the new root: B1.
        for name in ("B1", "B2", "B3"):
            assert net.bridge(name).root_id == net.bridge("B1").bid

    def test_failure_recovery_takes_forward_delays(self, stp_ring):
        """The outage is roughly 2 x forward_delay — the cost ARP-Path
        avoids, measured here at 0.1-scaled timers."""
        from repro.traffic.ping import PingSeries
        net = stp_ring
        series = PingSeries(net.host("H0"), net.host("H2").ip, count=60,
                            interval=0.1, timeout=0.5)
        series.start()
        fail_at = net.sim.now + 0.5
        net.sim.at(fail_at, net.link_between("B0", "B1").take_down)
        net.run(8.0)
        series.finalize()
        from repro.testing import recovery_from_pings
        recovery = recovery_from_pings(series.results, fail_at)
        assert recovery is not None
        # 2 x 1.5s forward delay, within a probe interval or two.
        assert 2.5 <= recovery.outage <= 4.0


class TestTopologyChange:
    def test_tcn_sent_on_failure(self, stp_ring):
        net = stp_ring
        net.link_between("B1", "B2").take_down()
        net.run(3.0)
        tcns = sum(net.bridge(n).stp_counters.tcns_sent
                   for n in ("B0", "B1", "B2", "B3"))
        assert tcns >= 1

    def test_root_sets_tc_and_fast_aging_propagates(self, stp_ring):
        net = stp_ring
        net.link_between("B1", "B2").take_down()
        net.run(2.0)
        # While TC is active, FDB aging is shortened on bridges that saw
        # the TC flag (forward_delay at scaled timers = 1.5s).
        ages = {net.bridge(n).fdb.aging_time for n in ("B0",)}
        assert ages == {FAST.forward_delay}

    def test_aging_restored_after_tc_while(self, stp_ring):
        net = stp_ring
        net.link_between("B1", "B2").take_down()
        net.run(2.0)
        net.run(10.0)  # > max_age + forward_delay at scale
        assert net.bridge("B0").fdb.aging_time \
            == net.bridge("B0").fdb.default_aging_time


class TestTimers:
    def test_scaling(self):
        scaled = StpTimers().scaled(0.5)
        assert scaled.hello_time == 1.0
        assert scaled.max_age == 10.0
        assert scaled.forward_delay == 7.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StpTimers(hello_time=0)
        with pytest.raises(ValueError):
            StpTimers().scaled(0)

    def test_message_age_expiry_reconverges(self, sim):
        """Silent upstream death (no carrier loss) ages out stored info."""
        net = pair(sim, fast_stp())
        net.run(4.0)
        b0, b1 = net.bridge("B0"), net.bridge("B1")
        assert not b1.is_root
        # Kill B0's control plane entirely (hung software, link alive):
        # no BPDU production AND no reaction to B1's claims.
        b0.stop()
        b0.handle_frame = lambda port, frame: None
        net.run(4.0)  # > max_age (2s scaled)
        assert b1.is_root


class TestBpduTypes:
    def test_config_bpdu_vector(self):
        root = BridgeId(0x8000, mac_for_bridge(0))
        bpdu = ConfigBpdu(root=root, cost=4, bridge=root,
                          port=PortId(0x80, 1))
        assert bpdu.key == (root.key, 4, root.key, PortId(0x80, 1).key)

    def test_tcn_wire_size(self):
        assert TcnBpdu(BridgeId(0x8000, mac_for_bridge(0))).wire_size == 4

    def test_config_flags_render(self):
        root = BridgeId(0x8000, mac_for_bridge(0))
        bpdu = ConfigBpdu(root=root, cost=0, bridge=root,
                          port=PortId(0x80, 0), topology_change=True,
                          topology_change_ack=True)
        assert "TC" in str(bpdu) and "TCA" in str(bpdu)
