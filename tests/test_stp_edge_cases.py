"""Edge-case tests for the 802.1D baseline."""


from repro.frames.ethernet import ETHERTYPE_BPDU, EthernetFrame, STP_MULTICAST
from repro.stp.bpdu import BridgeId, ConfigBpdu, PortId
from repro.stp.bridge import PortRole, PortState, StpTimers
from repro.topology import pair, ring, stp

FAST = StpTimers().scaled(0.1)


def fast_stp():
    return stp(timers=FAST)


class TestInferiorInformation:
    def test_designated_port_replies_to_inferior_bpdu(self, sim):
        """A late-joining bridge claiming root on our LAN is corrected
        immediately, not on the next hello tick."""
        net = pair(sim, fast_stp())
        net.run(4.0)
        b0 = net.bridge("B0")
        b1 = net.bridge("B1")
        sent_before = b1.stp_counters.bpdus_sent
        # Inject an inferior claim into B1's designated host port.
        pretender = BridgeId(0xF000, net.host("H1").mac)
        bogus = ConfigBpdu(root=pretender, cost=0, bridge=pretender,
                           port=PortId(0x80, 0),
                           max_age=FAST.max_age,
                           hello_time=FAST.hello_time,
                           forward_delay=FAST.forward_delay)
        host_port = net.host("H1").port.peer
        b1.handle_frame(host_port, EthernetFrame(
            dst=STP_MULTICAST, src=net.host("H1").mac,
            ethertype=ETHERTYPE_BPDU, payload=bogus))
        assert b1.stp_counters.bpdus_sent == sent_before + 1
        # And the tree is unchanged.
        assert b1.root_id == b0.bid

    def test_overage_bpdu_ignored(self, sim):
        net = pair(sim, fast_stp())
        net.run(4.0)
        b1 = net.bridge("B1")
        ancient = ConfigBpdu(root=BridgeId(0, net.host("H1").mac), cost=0,
                             bridge=BridgeId(0, net.host("H1").mac),
                             port=PortId(0x80, 0),
                             message_age=FAST.max_age,
                             max_age=FAST.max_age)
        host_port = net.host("H1").port.peer
        b1.handle_frame(host_port, EthernetFrame(
            dst=STP_MULTICAST, src=net.host("H1").mac,
            ethertype=ETHERTYPE_BPDU, payload=ancient))
        # Superior root claim, but too old to act on.
        assert b1.root_id != ancient.root


class TestPortStates:
    def test_listening_port_does_not_forward(self, sim):
        net = pair(sim, fast_stp())
        net.start()
        net.run(0.05)  # ports still LISTENING (forward delay is 1.5s)
        b0 = net.bridge("B0")
        states = {info.state for info in b0._port_info.values()
                  if info.port.is_attached}
        assert states <= {PortState.LISTENING, PortState.BLOCKING}
        # Traffic injected now goes nowhere.
        net.host("H0").gratuitous_arp()
        net.run(0.05)
        assert net.host("H1").counters.arp_requests_received == 0

    def test_full_transition_takes_two_forward_delays(self, sim):
        net = pair(sim, fast_stp())
        net.start()
        net.run(FAST.forward_delay + 0.1)
        b0 = net.bridge("B0")
        fabric_info = next(info for info in b0._port_info.values()
                           if info.port.peer.node.name == "B1")
        assert fabric_info.state is PortState.LEARNING
        net.run(FAST.forward_delay)
        assert fabric_info.state is PortState.FORWARDING

    def test_disabled_port_ignores_bpdus(self, sim):
        net = pair(sim, fast_stp())
        net.run(4.0)
        b1 = net.bridge("B1")
        wire = net.link_between("B0", "B1")
        wire.take_down()
        net.run(0.1)
        info = b1.info_for(wire.port_b if wire.port_b.node is b1
                           else wire.port_a)
        assert info.state is PortState.DISABLED
        received_before = b1.stp_counters.bpdus_received
        bpdu = ConfigBpdu(root=b1.bid, cost=0, bridge=b1.bid,
                          port=PortId(0x80, 0))
        b1._handle_bpdu(info.port, EthernetFrame(
            dst=STP_MULTICAST, src=b1.mac, ethertype=ETHERTYPE_BPDU,
            payload=bpdu))
        assert b1.stp_counters.bpdus_received == received_before


class TestRecoveryDynamics:
    def test_link_restore_reblocks_redundancy(self, sim):
        """Bringing a failed ring link back re-creates exactly one
        blocked port."""
        net = ring(sim, fast_stp(), 4)
        net.run(6.0)
        net.link_between("B1", "B2").take_down()
        net.run(5.0)
        net.link_between("B1", "B2").bring_up()
        net.run(5.0)
        blocked = [info for name in ("B0", "B1", "B2", "B3")
                   for info in net.bridge(name).ports_in(
                       PortRole.ALTERNATE)]
        assert len(blocked) == 1

    def test_partition_elects_two_roots(self, sim):
        net = ring(sim, fast_stp(), 4)
        net.run(6.0)
        # Cut the ring twice: {B0,B1} and {B2,B3} partitions.
        net.link_between("B1", "B2").take_down()
        net.link_between("B3", "B0").take_down()
        net.run(6.0)
        roots = {net.bridge(n).root_id for n in ("B0", "B1", "B2", "B3")}
        assert len(roots) == 2

    def test_heal_after_partition_single_root(self, sim):
        net = ring(sim, fast_stp(), 4)
        net.run(6.0)
        net.link_between("B1", "B2").take_down()
        net.link_between("B3", "B0").take_down()
        net.run(6.0)
        net.link_between("B1", "B2").bring_up()
        net.run(6.0)
        roots = {net.bridge(n).root_id for n in ("B0", "B1", "B2", "B3")}
        assert roots == {net.bridge("B0").bid}


class TestCounters:
    def test_bpdu_accounting(self, sim):
        net = pair(sim, fast_stp())
        net.run(4.0)
        b0, b1 = net.bridge("B0"), net.bridge("B1")
        assert b0.stp_counters.bpdus_sent > 0
        assert b1.stp_counters.bpdus_received > 0

    def test_discards_counted_during_convergence(self, sim):
        net = pair(sim, fast_stp())
        net.start()
        net.host("H0").gratuitous_arp()
        net.run(0.1)
        assert net.bridge("B0").stp_counters.discards_not_forwarding >= 1
