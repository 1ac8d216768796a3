"""Edge-case protocol tests for the ARP-Path bridge.

Covers the corners the main protocol tests don't: TTL exhaustion,
cache-answered repairs, unroutable PathFail fallback, multicast (group)
data, port role churn and proxy interplay with repair.
"""


from repro.core.table import EntryState
from repro.frames.ethernet import (ETHERTYPE_ARPPATH, ETHERTYPE_IPV4,
                                   EthernetFrame)
from repro.frames.mac import MAC
from repro.topology import arppath, line, netfpga_demo, pair
from repro.topology.builder import Network

from repro.testing import fast_config


def primed(net, src="H0", dst="H1"):
    source, sink = net.host(src), net.host(dst)
    got = []
    sink.bind_udp(7000, lambda sip, sp, p, pkt: got.append(p))
    source.send_udp(sink.ip, 7000, 7000, b"prime")
    net.run(1.0)
    assert got == [b"prime"]
    return source, sink, got


class TestTtlExhaustion:
    def test_path_request_dies_at_ttl(self, sim):
        """control_ttl smaller than the path length: the request never
        reaches the target's edge and the repair is abandoned."""
        config = fast_config(control_ttl=2, repair_retries=1,
                             repair_retry_timeout=0.05)
        net = line(sim, arppath(config), 5)
        net.run(3.0)
        source, sink, got = primed(net)
        # Expire the knowledge of H1 at the source edge only.
        b0 = net.bridge("B0")
        b0.table.remove(sink.mac)
        source.send_udp(sink.ip, 7000, 7000, b"too-far")
        net.run(2.0)
        assert b"too-far" not in got
        drops = sum(b.apc.ttl_drops for b in net.bridges.values())
        assert drops > 0
        abandoned = sum(b.repair.counters.abandoned
                        for b in net.bridges.values())
        assert abandoned >= 1

    def test_path_fail_dies_at_ttl(self, sim):
        """A PathFail carries the configured hop budget too: sent by B3
        toward B0 (three hops) with control_ttl=2, it is dropped at B1
        and B1 repairs in its place."""
        config = fast_config(control_ttl=2)
        net = line(sim, arppath(config), 5)
        net.run(3.0)
        source, sink, got = primed(net)
        # A mid-path miss: B3 is not H0's edge, so it sends a PathFail.
        net.bridge("B3").table.remove(sink.mac)
        source.send_udp(sink.ip, 7000, 7000, b"miss")
        net.run(0.5)
        assert net.bridge("B3").repair.counters.fails_sent == 1
        assert net.bridge("B2").repair.counters.fails_relayed == 1
        assert net.bridge("B1").apc.ttl_drops == 1
        assert net.bridge("B0").apc.path_fails_seen == 0

    def test_generous_ttl_reaches(self, sim):
        config = fast_config(control_ttl=16)
        net = line(sim, arppath(config), 5)
        net.run(3.0)
        source, sink, got = primed(net)
        net.bridge("B0").table.remove(sink.mac)
        source.send_udp(sink.ip, 7000, 7000, b"reachable")
        net.run(2.0)
        assert b"reachable" in got


class TestCacheAnsweredRepair:
    def test_mid_fabric_bridge_answers_from_cache(self, sim):
        """With repair_reply_from_cache a bridge that merely *knows* the
        target (entry toward it, not a host port) answers the request."""
        config = fast_config(repair_reply_from_cache=True)
        net = line(sim, arppath(config), 4)
        net.run(3.0)
        source, sink, got = primed(net)
        net.bridge("B0").table.remove(sink.mac)
        source.send_udp(sink.ip, 7000, 7000, b"via-cache")
        net.run(2.0)
        assert b"via-cache" in got
        # B1 answered (its entry for H1 points at B2 — a bridge port).
        answered_by = [name for name, b in net.bridges.items()
                       if b.repair.counters.requests_answered > 0]
        assert "B1" in answered_by

    def test_without_cache_reply_only_edge_answers(self, sim):
        net = line(sim, arppath(fast_config()), 4)
        net.run(3.0)
        source, sink, got = primed(net)
        net.bridge("B0").table.remove(sink.mac)
        source.send_udp(sink.ip, 7000, 7000, b"via-edge")
        net.run(2.0)
        assert b"via-edge" in got
        answered_by = [name for name, b in net.bridges.items()
                       if b.repair.counters.requests_answered > 0]
        assert answered_by == ["B3"]


class TestUnroutablePathFail:
    def test_relayed_pathfail_without_route_starts_local_repair(self, sim):
        """A PathFail arriving where the source entry is gone falls back
        to repairing locally instead of dying silently.

        This cannot happen on the natural data path (the data frame
        itself re-learns the source at every hop), so it is exercised
        by direct injection — the defensive branch for entry-expiry
        races and stale relays.
        """
        from repro.frames import control as ctl_proto
        net = netfpga_demo(sim, arppath(fast_config()))
        net.run(3.0)
        source, sink, got = primed(net, "A", "B")
        nf4 = net.bridge("NF4")  # off the active path: no entry for A
        assert nf4.table.get(source.mac, sim.now) is None
        fail = ctl_proto.make_path_fail(net.bridge("NF3").mac, source.mac,
                                        sink.mac, seq=1, ttl=64)
        frame = EthernetFrame(dst=source.mac, src=net.bridge("NF3").mac,
                              ethertype=ETHERTYPE_ARPPATH, payload=fail)
        nf4.handle_frame(nf4.attached_ports[0], frame)
        net.run(1.0)
        assert nf4.repair.counters.fails_unroutable == 1
        assert nf4.repair.counters.started == 1

    def test_midpath_reroute_bounds_loss_to_in_flight_frames(self, sim):
        """When the repaired path avoids the detecting bridge, its
        passively buffered frames are abandoned — bounded loss — and
        the conversation continues on the new path."""
        net = netfpga_demo(sim, arppath(fast_config()))
        net.run(3.0)
        source, sink, got = primed(net, "A", "B")
        nf1 = net.bridge("NF1")
        mid = nf1.path_port_for(sink.mac).peer.node  # NF2 on the path
        mid.path_port_for(sink.mac).link.take_down()
        source.send_udp(sink.ip, 7000, 7000, b"trigger")  # may be lost
        net.run(1.0)
        source.send_udp(sink.ip, 7000, 7000, b"after-repair")
        net.run(1.0)
        assert b"after-repair" in got
        # The repair completed at the source edge bridge.
        assert nf1.repair.counters.completed == 1
        # The detecting bridge's passive buffer was bounded: at most the
        # one in-flight frame was lost.
        lost = [p for p in (b"trigger",) if p not in got]
        assert len(lost) <= 1


class TestMulticastData:
    def test_group_frames_flood_loop_free(self, demo_net):
        group = MAC("01:00:5e:00:00:42")
        a = demo_net.host("A")
        sent_before = demo_net.sim.tracer.frames_sent
        a.port.send(EthernetFrame(dst=group, src=a.mac,
                                  ethertype=ETHERTYPE_IPV4, payload=b"m"))
        demo_net.run(1.0)
        # Bounded fan-out, no storm.
        assert demo_net.sim.tracer.frames_sent - sent_before < 60

    def test_group_frames_never_create_paths(self, demo_net):
        group = MAC("01:00:5e:00:00:42")
        a = demo_net.host("A")
        a.port.send(EthernetFrame(dst=group, src=a.mac,
                                  ethertype=ETHERTYPE_IPV4, payload=b"m"))
        demo_net.run(1.0)
        # No bridge holds a path entry for A (guards are separate).
        for bridge in demo_net.bridges.values():
            entry = bridge.table.get(a.mac, demo_net.sim.now)
            assert entry is None


class TestPortRoleChurn:
    def test_neighbor_replacement_on_same_port(self, sim):
        """Re-cabling a port to a different bridge updates the hello
        neighbour cache in place."""
        config = fast_config()
        net = Network(sim, bridge_factory=arppath(config))
        net.add_bridges("A", "B", "C")
        net.link("A", "B")
        net.start()
        net.run(2.0)
        bridge_a = net.bridge("A")
        port = bridge_a.attached_ports[0]
        assert bridge_a.neighbors[port.index] == net.bridge("B").mac
        # Pull the cable and plug C into the same port.
        net.links["A-B"].take_down()
        from repro.netsim.link import Link
        Link(sim, net.bridge("C").free_port(), bridge_a.add_port())
        net.run(2.0)
        # Old mapping decayed; A now knows only live neighbours.
        assert not bridge_a.is_bridge_port(port)

    def test_repair_answer_requires_live_port(self, sim):
        """A bridge whose host link just died must not answer requests
        for that host."""
        net = pair(sim, arppath(fast_config()))
        net.run(3.0)
        source, sink, _got = primed(net)
        net.link_between("H1", "B1").take_down()
        net.run(0.1)
        source.send_udp(sink.ip, 7000, 7000, b"gone")
        net.run(1.0)
        b1 = net.bridge("B1")
        assert b1.repair.counters.requests_answered == 0


class TestProxyRepairInterplay:
    def test_proxy_answer_then_repair_builds_path(self, sim):
        """A proxied ARP means no discovery flood; the first data frame
        then triggers Path Repair, which builds the path (the interplay
        the proxy docstring promises)."""
        config = fast_config(proxy_enabled=True, proxy_timeout=600.0)
        net = line(sim, arppath(config), 3)
        net.run(3.0)
        h0, h1 = net.host("H0"), net.host("H1")
        got = []
        h1.bind_udp(7000, lambda sip, sp, p, pkt: got.append(p))
        # Prime proxy caches everywhere with one full exchange; H0's
        # binding for H1 expires before the second send.
        h0.arp_timeout = 0.5
        h0.send_udp(h1.ip, 7000, 7000, b"prime")
        net.run(1.0)
        # The source edge forgets the path (expiry); the host re-ARPs,
        # the proxy suppresses the flood, and the data frame's miss is
        # healed by Path Repair instead.
        b0 = net.bridge("B0")
        b0.table.remove(h1.mac)
        arp_flood_before = sum(b.apc.discovery_frames
                               for name, b in net.bridges.items()
                               if name != "B0")
        h0.send_udp(h1.ip, 7000, 7000, b"proxied")
        net.run(2.0)
        assert b"proxied" in got
        assert b0.apc.proxy_suppressed >= 1
        started = sum(b.repair.counters.started
                      for b in net.bridges.values())
        assert started >= 1  # the data path was repaired, not flooded
        # The re-ARP never reached the inner bridges as a broadcast.
        arp_flood_after = sum(b.apc.discovery_frames
                              for name, b in net.bridges.items()
                              if name != "B0")
        assert arp_flood_after == arp_flood_before


class TestRefreshSemantics:
    def test_same_port_rebroadcast_keeps_learnt_timeout(self, sim):
        """A re-ARP over the established path must not downgrade the
        learnt entry to the short lock timeout."""
        config = fast_config(lock_timeout=0.1, learnt_timeout=5.0)
        net = pair(sim, arppath(config))
        net.run(3.0)
        h0, h1 = net.host("H0"), net.host("H1")
        h0.send_udp(h1.ip, 7000, 7000, b"x")
        net.run(1.0)
        h0.gratuitous_arp()  # same port as the learnt entry
        net.run(0.5)  # longer than lock_timeout
        b0 = net.bridge("B0")
        entry = b0.table.get(h0.mac, sim.now)
        assert entry is not None
        assert entry.state is EntryState.LEARNT
