"""Tests for the link-state shortest-path bridging baseline."""

import pytest

from repro.frames.mac import mac_for_bridge, mac_for_host
from repro.spb.lsp import Adjacency, LinkStatePacket
from repro.topology import grid, pair, ring, spb

from repro.testing import ping_once


@pytest.fixture
def spb_ring(sim):
    net = ring(sim, spb(), 4)
    net.run(8.0)
    return net


class TestLsp:
    def test_newer_than(self):
        origin = mac_for_bridge(0)
        old = LinkStatePacket(origin=origin, seq=1)
        new = LinkStatePacket(origin=origin, seq=2)
        assert new.newer_than(old)
        assert not old.newer_than(new)

    def test_wire_size_grows(self):
        origin = mac_for_bridge(0)
        empty = LinkStatePacket(origin=origin, seq=1)
        full = LinkStatePacket(origin=origin, seq=1,
                               adjacencies=(Adjacency(mac_for_bridge(1)),),
                               hosts=(mac_for_host(0),))
        assert full.wire_size > empty.wire_size

    def test_rejects_negative_seq(self):
        with pytest.raises(ValueError):
            LinkStatePacket(origin=mac_for_bridge(0), seq=-1)

    def test_adjacency_rejects_bad_cost(self):
        with pytest.raises(ValueError):
            Adjacency(mac_for_bridge(0), cost=0)


class TestAdjacency:
    def test_neighbors_discovered(self, spb_ring):
        b0 = spb_ring.bridge("B0")
        neighbor_macs = {b0.neighbor_on(p) for p in b0.attached_ports
                         if b0.is_bridge_port(p)}
        expected = {spb_ring.bridge("B1").mac, spb_ring.bridge("B3").mac}
        assert neighbor_macs == expected

    def test_host_ports_classified(self, spb_ring):
        b0 = spb_ring.bridge("B0")
        host_port = spb_ring.host("H0").port.peer
        assert b0.is_host_port(host_port)

    def test_lsdb_converges_everywhere(self, spb_ring):
        for name in ("B0", "B1", "B2", "B3"):
            assert len(spb_ring.bridge(name).lsdb_summary()) == 4

    def test_hosts_advertised(self, spb_ring):
        # Hosts are advertised once they first transmit.
        spb_ring.host("H0").gratuitous_arp()
        spb_ring.run(1.0)
        b2 = spb_ring.bridge("B2")
        assert b2.attachment_bridge(spb_ring.host("H0").mac) \
            == spb_ring.bridge("B0").mac


class TestForwarding:
    def test_end_to_end_ping(self, spb_ring):
        assert ping_once(spb_ring, "H0", "H2", timeout=4.0) is not None

    def test_no_broadcast_storm(self, spb_ring):
        sim = spb_ring.sim
        sent_before = sim.tracer.frames_sent
        spb_ring.host("H0").gratuitous_arp()
        spb_ring.run(1.0)
        assert sim.tracer.frames_sent - sent_before < 200

    def test_broadcast_reaches_all_hosts_once(self, spb_ring):
        counts_before = {name: host.counters.arp_requests_received
                         for name, host in spb_ring.hosts.items()}
        spb_ring.host("H0").gratuitous_arp()
        spb_ring.run(1.0)
        for name, host in spb_ring.hosts.items():
            if name == "H0":
                continue
            assert host.counters.arp_requests_received \
                == counts_before[name] + 1

    def test_unknown_unicast_dropped_not_flooded(self, spb_ring):
        from repro.frames.ethernet import ETHERTYPE_IPV4, EthernetFrame
        h0 = spb_ring.host("H0")
        ghost = mac_for_host(77)
        h0.port.send(EthernetFrame(dst=ghost, src=h0.mac,
                                   ethertype=ETHERTYPE_IPV4, payload=b""))
        spb_ring.run(0.5)
        drops = sum(spb_ring.bridge(n).spb_counters.unknown_unicast_drops
                    for n in ("B0", "B1", "B2", "B3"))
        assert drops == 1

    def test_shortest_hop_path_used(self, sim):
        """SPB minimises hop count (administrative cost), not latency."""
        net = ring(sim, spb(), 5)
        net.run(8.0)
        # H0 on B0, H1 on B1: direct link is 1 hop vs 4 the long way.
        rtt = ping_once(net, "H0", "H1", timeout=4.0)
        assert rtt is not None
        assert rtt < 100e-6


class TestFailover:
    def test_reconvergence_after_link_failure(self, spb_ring):
        net = spb_ring
        assert ping_once(net, "H0", "H1", timeout=4.0) is not None
        net.link_between("B0", "B1").take_down()
        net.run(5.0)  # re-flood + SPF
        assert ping_once(net, "H0", "H1", timeout=4.0) is not None

    def test_lsdb_reflects_dead_adjacency(self, spb_ring):
        net = spb_ring
        net.link_between("B0", "B1").take_down()
        net.run(3.0)
        b2 = net.bridge("B2")
        b0_lsp = b2.lsdb_summary()[str(net.bridge("B0").mac)]
        assert b0_lsp["adjacencies"] == 1  # only B3 left

    def test_host_moves_with_relearn(self, sim):
        """A host that falls silent ages out and is re-advertised on
        its new attachment after it speaks again."""
        net = ring(sim, spb(host_aging=2.0), 4)
        net.run(8.0)
        h0 = net.host("H0")
        assert ping_once(net, "H0", "H1", timeout=4.0) is not None
        net.run(5.0)  # H0 silent: aged out everywhere
        h0.gratuitous_arp()
        net.run(2.0)
        b2 = net.bridge("B2")
        assert b2.attachment_bridge(h0.mac) == net.bridge("B0").mac


class TestControlPlaneCost:
    def test_lsps_flood_network_wide(self, spb_ring):
        """The complexity the paper's intro criticises: every topology
        event costs network-wide flooding."""
        flooded = sum(spb_ring.bridge(n).spb_counters.lsps_flooded
                      for n in ("B0", "B1", "B2", "B3"))
        assert flooded > 10

    def test_spf_runs_on_change(self, spb_ring):
        net = spb_ring
        runs_before = sum(net.bridge(n).spb_counters.spf_runs
                          for n in ("B0", "B1", "B2", "B3"))
        net.link_between("B2", "B3").take_down()
        net.run(2.0)
        ping_once(net, "H0", "H1", timeout=2.0)
        runs_after = sum(net.bridge(n).spb_counters.spf_runs
                         for n in ("B0", "B1", "B2", "B3"))
        assert runs_after > runs_before

    def test_stale_lsps_ignored(self, sim):
        net = pair(sim, spb())
        net.run(8.0)
        b0, b1 = net.bridge("B0"), net.bridge("B1")
        stale_before = b1.spb_counters.lsps_stale
        # Replay B0's own current LSP at B1: same seq = stale.
        lsp, _t = b1._lsdb[b0.mac]
        b1._handle_lsp(b1.attached_ports[0], lsp)
        assert b1.spb_counters.lsps_stale == stale_before + 1


class TestSymmetricTieBreaking:
    def test_all_bridges_agree_on_trees(self, sim):
        """Every bridge computes the same SPT for a given root — the
        802.1aq congruence property our RPF check relies on."""
        net = grid(sim, spb(), 3, 3, hosts_at_corners=True)
        net.run(10.0)
        bridges = list(net.bridges.values())
        root = bridges[0].mac
        trees = []
        for bridge in bridges:
            spf = bridge._spf(root)
            trees.append({str(k): (str(v) if v else None)
                          for k, v in spf.parent.items()})
        assert all(t == trees[0] for t in trees[1:])
