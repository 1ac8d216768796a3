"""Protocol tests for the ARP-Path bridge (paper §2.1).

These exercise the bridge as a black box inside small simulated
networks: locking, race filtering, path confirmation, loop-free
broadcast, hellos and the ARP proxy.
"""


from repro.core.table import EntryState
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_ARPPATH,
                                   ETHERTYPE_IPV4)
from repro.topology import arppath, line, pair, ring
from repro.topology.builder import Network

from repro.testing import fast_config, ping_once


class TestDiscoveryLocking:
    def test_arp_locks_source_on_ingress(self, pair_net):
        h0 = pair_net.host("H0")
        h0.gratuitous_arp()
        pair_net.run(0.01)
        b0 = pair_net.bridge("B0")
        entry = b0.table.get(h0.mac, pair_net.sim.now)
        assert entry is not None
        assert entry.port.peer.node is h0

    def test_losing_race_copy_is_filtered(self, demo_net):
        """On the demo ring, the slow cross-link copy must be discarded."""
        demo_net.host("A").gratuitous_arp()
        demo_net.run(1.0)
        filtered = sum(b.apc.discovery_filtered
                       for b in demo_net.bridges.values())
        assert filtered > 0

    def test_each_bridge_locks_exactly_one_port(self, demo_net):
        a = demo_net.host("A")
        a.gratuitous_arp()
        demo_net.run(0.0006)  # mid-race
        for bridge in demo_net.bridges.values():
            entry = bridge.table.get(a.mac, demo_net.sim.now)
            assert entry is not None  # everyone heard the broadcast

    def test_broadcast_reaches_every_host_once(self, demo_net):
        a, b = demo_net.host("A"), demo_net.host("B")
        before = b.counters.arp_requests_received
        a.gratuitous_arp()
        demo_net.run(1.0)
        assert b.counters.arp_requests_received == before + 1

    def test_relock_after_guard_expiry(self, sim):
        """A re-broadcast after the race window can move the path."""
        config = fast_config()
        net = pair(sim, arppath(config))
        net.run(3.0)
        h0 = net.host("H0")
        h0.gratuitous_arp()
        net.run(1.0)  # guard (0.1s) long expired
        h0.gratuitous_arp()
        net.run(0.05)  # within the fresh lock window
        b1 = net.bridge("B1")
        entry = b1.table.get(h0.mac, sim.now)
        assert entry is not None and entry.is_locked


class TestPathConfirmation:
    def test_arp_reply_converts_locked_to_learnt(self, pair_net):
        h0, h1 = pair_net.host("H0"), pair_net.host("H1")
        h0.send_udp(h1.ip, 1, 2, b"")
        pair_net.run(1.0)
        for name in ("B0", "B1"):
            entry = pair_net.bridge(name).table.get(h0.mac,
                                                    pair_net.sim.now)
            assert entry is not None
            assert entry.state is EntryState.LEARNT

    def test_both_directions_learnt(self, pair_net):
        h0, h1 = pair_net.host("H0"), pair_net.host("H1")
        h0.send_udp(h1.ip, 1, 2, b"")
        pair_net.run(1.0)
        b0 = pair_net.bridge("B0")
        assert b0.table.get(h1.mac, pair_net.sim.now).state \
            is EntryState.LEARNT

    def test_path_is_symmetric(self, demo_net):
        """Frames B→A traverse the same bridges as A→B (paper §2.1.2)."""
        sim = demo_net.sim
        a, b = demo_net.host("A"), demo_net.host("B")
        assert ping_once(demo_net, "A", "B") is not None
        # Port toward B at NF1 and port toward A at NF3 are the path
        # ends; the middle bridge must have both on matching ports.
        nf2 = demo_net.bridge("NF2")
        entry_a = nf2.table.get(a.mac, sim.now)
        entry_b = nf2.table.get(b.mac, sim.now)
        if entry_a is not None and entry_b is not None:
            # NF2 is on the path: A toward NF1 side, B toward NF3 side.
            assert entry_a.port is not entry_b.port

    def test_unicast_refreshes_path(self, sim):
        config = fast_config(learnt_timeout=1.0)
        net = pair(sim, arppath(config))
        net.run(3.0)
        h0, h1 = net.host("H0"), net.host("H1")
        h0.send_udp(h1.ip, 1, 2, b"")
        net.run(0.5)
        # Keep traffic flowing at under the learnt timeout.
        for _ in range(4):
            h0.send_udp(h1.ip, 1, 2, b"keepalive")
            net.run(0.6)
        b0 = net.bridge("B0")
        assert b0.table.get(h0.mac, sim.now) is not None

    def test_minimum_latency_path_chosen(self, demo_net):
        """The headline claim on the demo topology."""
        rtt = ping_once(demo_net, "A", "B")
        # Ring path RTT is ~50us; the cross would be ~1000us.
        assert rtt is not None and rtt < 200e-6


class TestUnicastForwarding:
    def test_frame_to_bridge_mac_consumed(self, pair_net):
        from repro.frames.ethernet import EthernetFrame
        h0 = pair_net.host("H0")
        b0 = pair_net.bridge("B0")
        before = b0.counters.forwarded
        h0.port.send(EthernetFrame(dst=b0.mac, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        pair_net.run(0.1)
        assert b0.counters.forwarded == before

    def test_unicast_to_same_port_filtered(self, sim):
        """Destination already behind the ingress port: discard."""
        from repro.frames.ethernet import EthernetFrame
        from repro.frames.mac import mac_for_host
        net = Network(sim, bridge_factory=arppath())
        net.add_bridge("B0")
        h0 = net.add_host("H0")
        h1 = net.add_host("H1")
        net.attach("H0", "B0")
        net.attach("H1", "B0")
        net.start()
        net.run(2.0)
        b0 = net.bridge("B0")
        # Teach the bridge a ghost MAC behind H0's own port.
        ghost = mac_for_host(99)
        b0.table.learn(ghost, net.link_between("H0", "B0").port_b, sim.now)
        before = b0.counters.filtered
        h0.port.send(EthernetFrame(dst=ghost, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        net.run(0.1)
        assert b0.counters.filtered == before + 1

    def test_miss_without_repair_drops(self, sim):
        config = fast_config(repair_enabled=False)
        net = pair(sim, arppath(config))
        net.run(2.0)
        from repro.frames.ethernet import EthernetFrame
        from repro.frames.mac import mac_for_host
        h0 = net.host("H0")
        h0.port.send(EthernetFrame(dst=mac_for_host(55), src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        net.run(0.5)
        b0 = net.bridge("B0")
        assert b0.apc.drops_no_repair == 1


class TestLoopFreeBroadcast:
    def test_non_arp_broadcast_does_not_create_paths(self, pair_net):
        from repro.frames.ethernet import EthernetFrame
        from repro.frames.mac import BROADCAST
        h0 = pair_net.host("H0")
        h0.port.send(EthernetFrame(dst=BROADCAST, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b"x"))
        pair_net.run(0.5)
        b0 = pair_net.bridge("B0")
        assert b0.table.get(h0.mac, pair_net.sim.now) is None

    def test_broadcast_guard_filters_loops(self, sim):
        """IP broadcast on a ring terminates (no storm)."""
        net = ring(sim, arppath(), 4)
        net.run(3.0)
        sent_before = sim.tracer.frames_sent
        from repro.frames.ethernet import EthernetFrame
        from repro.frames.mac import BROADCAST
        h0 = net.host("H0")
        h0.port.send(EthernetFrame(dst=BROADCAST, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b"x"))
        net.run(2.0)
        delta = sim.tracer.frames_sent - sent_before
        # Hellos keep flowing; the broadcast itself adds a bounded
        # number of copies (well under a storm).
        assert delta < 100

    def test_guarded_source_accepted_on_same_port(self, pair_net):
        from repro.frames.ethernet import EthernetFrame
        from repro.frames.mac import BROADCAST
        h0 = pair_net.host("H0")
        for _ in range(2):
            h0.port.send(EthernetFrame(dst=BROADCAST, src=h0.mac,
                                       ethertype=ETHERTYPE_IPV4,
                                       payload=b"x"))
        pair_net.run(0.5)
        b0 = pair_net.bridge("B0")
        assert b0.apc.broadcast_guard_filtered == 0

    def test_existing_path_port_is_the_guard(self, pair_net):
        """Broadcasts from a host with an established path are accepted
        only on the path port."""
        h0, h1 = pair_net.host("H0"), pair_net.host("H1")
        h0.send_udp(h1.ip, 1, 2, b"")
        pair_net.run(1.0)
        from repro.frames.ethernet import EthernetFrame
        from repro.frames.mac import BROADCAST
        # Inject a spoofed broadcast with H0's MAC from H1's side.
        h1.port.send(EthernetFrame(dst=BROADCAST, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b"x"))
        pair_net.run(0.5)
        b1 = pair_net.bridge("B1")
        assert b1.apc.broadcast_guard_filtered == 1


class TestHellos:
    def test_fabric_ports_classified_bridge(self, demo_net):
        nf1 = demo_net.bridge("NF1")
        fabric_ports = [p for p in nf1.attached_ports
                        if p.peer.node.name != "A"]
        for port in fabric_ports:
            assert nf1.is_bridge_port(port)

    def test_host_ports_classified_host(self, demo_net):
        nf1 = demo_net.bridge("NF1")
        host_port = next(p for p in nf1.attached_ports
                         if p.peer.node.name == "A")
        assert nf1.is_host_port(host_port)

    def test_neighbor_identity_recorded(self, demo_net):
        nf1 = demo_net.bridge("NF1")
        nf2 = demo_net.bridge("NF2")
        port_to_nf2 = next(p for p in nf1.attached_ports
                           if p.peer.node is nf2)
        assert nf1.neighbors[port_to_nf2.index] == nf2.mac

    def test_classification_decays_after_carrier_loss(self, sim):
        config = fast_config()
        net = pair(sim, arppath(config))
        net.run(3.0)
        b0 = net.bridge("B0")
        fabric_port = next(p for p in b0.attached_ports
                           if p.peer.node.name == "B1")
        assert b0.is_bridge_port(fabric_port)
        net.link_between("B0", "B1").take_down()
        net.run(3.0)
        assert not b0.is_bridge_port(fabric_port)

    def test_static_roles_override(self, sim):
        config = fast_config(hello_enabled=False)
        net = pair(sim, arppath(config))
        net.mark_static_roles()
        net.run(1.0)
        b0 = net.bridge("B0")
        host_port = next(p for p in b0.attached_ports
                         if p.peer.node.name == "H0")
        fabric_port = next(p for p in b0.attached_ports
                           if p.peer.node.name == "B1")
        assert b0.is_host_port(host_port)
        assert b0.is_bridge_port(fabric_port)

    def test_hello_disabled_sends_none(self, sim):
        config = fast_config(hello_enabled=False)
        net = pair(sim, arppath(config))
        net.run(3.0)
        assert sim.tracer.count("sent", ETHERTYPE_ARPPATH) == 0

    def test_hosts_never_see_hellos_as_traffic(self, demo_net):
        """Transparency: host counters show no ARP-Path artefacts."""
        a = demo_net.host("A")
        assert a.counters.ip_received == 0
        assert a.counters.arp_requests_received == 0


class TestProxy:
    def _proxied_net(self, sim):
        config = fast_config(proxy_enabled=True, proxy_timeout=300.0)
        net = line(sim, arppath(config), 3)
        net.run(3.0)
        return net

    def test_second_resolution_suppressed(self, sim):
        net = self._proxied_net(sim)
        h0, h1 = net.host("H0"), net.host("H1")
        h0.arp_timeout = 0.5                # forgets H1 before re-sending
        h0.send_udp(h1.ip, 1, 2, b"prime")  # populates proxy caches
        net.run(1.0)
        arp_sent_before = sim.tracer.count("sent", ETHERTYPE_ARP)
        h0.send_udp(h1.ip, 1, 2, b"again")
        net.run(1.0)
        arp_delta = sim.tracer.count("sent", ETHERTYPE_ARP) - arp_sent_before
        # Request + proxied reply on the host link only: no fabric flood.
        assert arp_delta <= 2
        edge = net.bridge("B0")
        assert edge.apc.proxy_suppressed == 1

    def test_suppressed_resolution_still_resolves(self, sim):
        net = self._proxied_net(sim)
        h0, h1 = net.host("H0"), net.host("H1")
        h0.arp_timeout = 0.5                # forgets H1 before re-sending
        h0.send_udp(h1.ip, 1, 2, b"prime")
        net.run(1.0)
        got = []
        h1.bind_udp(2, lambda sip, sp, payload, pkt: got.append(payload))
        h0.send_udp(h1.ip, 1, 2, b"after-proxy")
        net.run(1.0)
        assert b"after-proxy" in got

    def test_proxy_disabled_never_answers(self, demo_net):
        for bridge in demo_net.bridges.values():
            assert bridge.proxy is None


class TestLifecycle:
    def test_stop_halts_hellos(self, sim):
        net = pair(sim, arppath(fast_config()))
        net.run(2.0)
        b0 = net.bridge("B0")
        b0.stop()
        sent_before = b0.apc.hellos_sent
        net.run(5.0)
        assert b0.apc.hellos_sent == sent_before

    def test_own_frames_ignored(self, pair_net):
        from repro.frames.ethernet import EthernetFrame
        b0 = pair_net.bridge("B0")
        received_before = b0.counters.flooded_frames
        frame = EthernetFrame(dst=pair_net.host("H0").mac, src=b0.mac,
                              ethertype=ETHERTYPE_IPV4, payload=b"")
        b0.handle_frame(b0.ports[0], frame)
        assert b0.counters.flooded_frames == received_before

    def test_repr_mentions_name(self, pair_net):
        assert "B0" in repr(pair_net.bridge("B0"))
