"""Tests for the network builder, factories and topology library."""

import pytest

from repro.core.bridge import ArpPathBridge
from repro.netsim.engine import Simulator
from repro.netsim.errors import AddressError, TopologyError
from repro.spb.bridge import SpbBridge
from repro.stp.bridge import StpBridge
from repro.switching import base
from repro.switching.learning import LearningSwitch
from repro.testing import graph_of
from repro.topology import (arppath, fat_tree, grid, line, netfpga_demo, pair,
                            random_graph, ring, stp)
from repro.topology.builder import Network


class TestBuilder:
    def test_duplicate_node_name_rejected(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_bridge("X")
        with pytest.raises(TopologyError):
            net.add_bridge("X")
        with pytest.raises(TopologyError):
            net.add_host("X")

    def test_no_factory_rejected(self, sim):
        net = Network(sim)
        with pytest.raises(TopologyError):
            net.add_bridge("B")

    def test_per_bridge_factory_override(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_bridge("AP")
        net.add_bridge("ST", factory=stp())
        assert isinstance(net.bridge("AP"), ArpPathBridge)
        assert isinstance(net.bridge("ST"), StpBridge)

    def test_unique_addresses(self, sim):
        net = Network(sim, bridge_factory=arppath())
        h0 = net.add_host("H0")
        h1 = net.add_host("H1")
        assert h0.mac != h1.mac and h0.ip != h1.ip

    def test_duplicate_ip_rejected(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_host("H0")
        with pytest.raises(AddressError):
            net.add_host("H1", ip=net.host("H0").ip)

    def test_duplicate_mac_rejected(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_host("H0")
        with pytest.raises(AddressError):
            net.add_host("H1", mac=net.host("H0").mac)

    def test_link_registry(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_bridges("A", "B")
        wire = net.link("A", "B", latency=5e-6)
        assert net.link_between("A", "B") is wire
        assert net.link_between("B", "A") is wire

    def test_duplicate_link_name_rejected(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_bridges("A", "B")
        net.link("A", "B")
        with pytest.raises(TopologyError):
            net.link("A", "B")

    def test_unknown_link_lookup(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_bridges("A", "B")
        with pytest.raises(TopologyError):
            net.link_between("A", "B")

    def test_attach_validates_roles(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_bridge("B")
        net.add_host("H")
        with pytest.raises(TopologyError):
            net.attach("B", "H")  # reversed arguments

    def test_bridge_for_host(self, sim):
        net = pair(sim, arppath())
        assert net.bridge_for_host("H0").name == "B0"

    def test_fabric_links_excludes_host_links(self, sim):
        net = pair(sim, arppath())
        names = {link.name for link in net.fabric_links()}
        assert names == {"B0-B1"}

    def test_start_is_idempotent(self, sim):
        net = pair(sim, arppath())
        net.start()
        net.start()
        assert all(b.started for b in net.bridges.values())

    def test_node_lookup_errors(self, sim):
        net = Network(sim, bridge_factory=arppath())
        with pytest.raises(TopologyError):
            net.node("ghost")
        with pytest.raises(TopologyError):
            net.host("ghost")
        with pytest.raises(TopologyError):
            net.bridge("ghost")

    def test_mark_static_roles(self, sim):
        net = pair(sim, arppath())
        marked = net.mark_static_roles()
        assert marked == 4  # 2 host ports + both ends of B0-B1


class TestFactories:
    def test_family_factories_build_their_bridges(self, sim):
        for name, kind in [("arppath", ArpPathBridge), ("stp", StpBridge),
                           ("spb", SpbBridge),
                           ("learning", LearningSwitch)]:
            factory = base.family(name).factory()
            bridge = factory(sim, "X" + name,
                             __import__("repro.frames.mac",
                                        fromlist=["mac_for_bridge"]
                                        ).mac_for_bridge(200 + len(name)))
            assert isinstance(bridge, kind)
            assert base.family(name).bridge is kind

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="token-ring"):
            base.family("token-ring")


class TestLibrary:
    def test_netfpga_demo_shape(self, sim):
        net = netfpga_demo(sim, arppath())
        assert set(net.bridges) == {"NF1", "NF2", "NF3", "NF4"}
        assert set(net.hosts) == {"A", "B"}
        assert len(net.fabric_links()) == 5  # ring + cross

    def test_netfpga_demo_cross_is_slow(self, sim):
        net = netfpga_demo(sim, arppath())
        cross = net.link_between("NF1", "NF3")
        ring_link = net.link_between("NF1", "NF2")
        assert cross.latency > ring_link.latency

    def test_line_shape(self, sim):
        net = line(sim, arppath(), 5)
        assert len(net.bridges) == 5
        assert len(net.fabric_links()) == 4

    def test_line_validation(self, sim):
        with pytest.raises(TopologyError):
            line(sim, arppath(), 0)

    def test_ring_shape(self, sim):
        net = ring(sim, arppath(), 6, hosts_per_bridge=2)
        assert len(net.fabric_links()) == 6
        assert len(net.hosts) == 12

    def test_ring_validation(self, sim):
        with pytest.raises(TopologyError):
            ring(sim, arppath(), 2)
        with pytest.raises(TopologyError):
            ring(sim, arppath(), 4, latencies=[1e-6])

    def test_ring_custom_latencies(self, sim):
        latencies = [1e-6, 2e-6, 3e-6]
        net = ring(sim, arppath(), 3, latencies=latencies)
        measured = sorted(link.latency for link in net.fabric_links())
        assert measured == latencies

    def test_grid_shape(self, sim):
        net = grid(sim, arppath(), 3, 4)
        assert len(net.bridges) == 12
        # Edges: 3*(4-1) horizontal rows + (3-1)*4 vertical = 9+8
        assert len(net.fabric_links()) == 17

    def test_grid_jitter_deterministic(self):
        net_a = grid(Simulator(seed=0), arppath(), 2, 2,
                     latency_jitter=5e-6, seed=9)
        net_b = grid(Simulator(seed=0), arppath(), 2, 2,
                     latency_jitter=5e-6, seed=9)
        lat_a = [l.latency for l in net_a.fabric_links()]
        lat_b = [l.latency for l in net_b.fabric_links()]
        assert lat_a == lat_b

    def test_grid_validation(self, sim):
        with pytest.raises(TopologyError):
            grid(sim, arppath(), 0, 3)

    def test_fat_tree_shape(self, sim):
        net = fat_tree(sim, arppath(), pods=4, hosts_per_edge=2)
        assert len([n for n in net.bridges if n.startswith("S")]) == 2
        assert len([n for n in net.bridges if n.startswith("L")]) == 4
        assert len(net.fabric_links()) == 8
        assert len(net.hosts) == 8

    def test_random_graph_connected(self):
        import networkx as nx
        for seed in range(5):
            net = random_graph(Simulator(seed=0), arppath(), 12,
                               seed=seed, hosts=4)
            graph = graph_of(net, fabric_only=True)
            assert nx.is_connected(graph)

    def test_random_graph_deterministic(self):
        net_a = random_graph(Simulator(seed=0), arppath(), 10, seed=3)
        net_b = random_graph(Simulator(seed=0), arppath(), 10, seed=3)
        assert set(net_a.links) == set(net_b.links)
        lat_a = {n: l.latency for n, l in net_a.links.items()}
        lat_b = {n: l.latency for n, l in net_b.links.items()}
        assert lat_a == lat_b

    def test_random_graph_validation(self, sim):
        with pytest.raises(TopologyError):
            random_graph(sim, arppath(), 1)
        with pytest.raises(TopologyError):
            random_graph(sim, arppath(), 3, hosts=5)


class TestGraphOf:
    def test_latency_weights(self, sim):
        net = netfpga_demo(sim, arppath())
        graph = graph_of(net)
        assert graph["NF1"]["NF3"]["latency"] \
            == net.link_between("NF1", "NF3").latency

    def test_down_links_excluded(self, sim):
        net = netfpga_demo(sim, arppath())
        net.link_between("NF1", "NF3").take_down()
        graph = graph_of(net)
        assert "NF3" not in graph["NF1"]

    def test_fabric_only_excludes_hosts(self, sim):
        net = netfpga_demo(sim, arppath())
        graph = graph_of(net, fabric_only=True)
        assert "A" not in graph.nodes
