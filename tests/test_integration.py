"""Cross-module integration tests: full protocol scenarios end to end.

These are the scenarios that make the paper's claims measurable; the
experiment modules run bigger versions of the same machinery.
"""

import pytest

from repro.netsim.engine import Simulator
from repro.topology import (arppath, fat_tree, grid, learning, line,
                            netfpga_demo, random_graph, ring, stp_scaled)
from repro.traffic.ping import PingSeries
from repro.traffic.video import stream_between

from repro.testing import ping_once


class TestArpPathConnectivity:
    """Any host pair can talk on any topology — the baseline sanity."""

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_line(self, n):
        sim = Simulator(seed=1)
        net = line(sim, arppath(), n)
        net.run(5.0)
        assert ping_once(net, "H0", "H1") is not None

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_ring(self, n):
        sim = Simulator(seed=1)
        net = ring(sim, arppath(), n)
        net.run(5.0)
        assert ping_once(net, "H0", f"H{n // 2}") is not None

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 5)])
    def test_grid(self, dims):
        rows, cols = dims
        sim = Simulator(seed=1)
        net = grid(sim, arppath(), rows, cols)
        net.run(5.0)
        hosts = sorted(net.hosts)
        assert ping_once(net, hosts[0], hosts[-1]) is not None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs_all_pairs(self, seed):
        sim = Simulator(seed=seed)
        net = random_graph(sim, arppath(), 8, seed=seed, hosts=3)
        net.run(5.0)
        hosts = sorted(net.hosts)
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    assert ping_once(net, src, dst) is not None, \
                        f"{src}->{dst} failed on seed {seed}"

    def test_fat_tree(self):
        sim = Simulator(seed=1)
        net = fat_tree(sim, arppath(), pods=4)
        net.run(5.0)
        assert ping_once(net, "H0", "H7") is not None


class TestFig2Shape:
    """The demo's headline: ARP-Path beats STP on path latency."""

    def test_arppath_beats_stp_on_demo_topology(self):
        rtts = {}
        for name, factory, warmup in [
                ("arppath", arppath(), 5.0),
                ("stp", stp_scaled(0.1), 6.0)]:
            sim = Simulator(seed=1)
            net = netfpga_demo(sim, factory)
            net.run(warmup)
            ping_once(net, "A", "B")  # resolve/learn
            rtts[name] = ping_once(net, "A", "B")
        assert rtts["arppath"] is not None and rtts["stp"] is not None
        assert rtts["stp"] / rtts["arppath"] > 5

    def test_arppath_rtt_tracks_oracle(self):
        from repro.metrics.paths import min_latency_path
        sim = Simulator(seed=1)
        net = netfpga_demo(sim, arppath())
        net.run(5.0)
        ping_once(net, "A", "B")
        rtt = ping_once(net, "A", "B")
        oracle = min_latency_path(net, "A", "B")
        # RTT ~ 2x oracle + serialization; never better than physics.
        assert rtt >= 2 * oracle.latency
        assert rtt <= 2 * oracle.latency * 2


class TestFig3Shape:
    """The demo's second result: repair is orders faster than STP."""

    def test_repair_vs_stp_outage(self):
        outages = {}
        for name, factory, warmup in [
                ("arppath", arppath(), 5.0),
                ("stp", stp_scaled(0.1), 6.0)]:
            sim = Simulator(seed=1)
            net = netfpga_demo(sim, factory)
            net.run(warmup)
            source, sink = stream_between(net.host("A"), net.host("B"),
                                          fps=50.0)
            source.start()
            net.run(1.0)
            # Cut whatever path the stream uses (protocol-specific).
            for wire in list(net.fabric_links()):
                loads = net.sim.tracer  # cheap approach: cut by protocol
            if name == "arppath":
                bridge = net.bridge("NF1")
                bridge.path_port_for(sink.host.mac).link.take_down()
            else:
                net.link_between("NF1", "NF3").take_down()  # STP tree path
            fail_at = net.sim.now
            net.run(8.0)
            source.stop()
            from repro.metrics.convergence import recovery_from_arrivals
            recovery = recovery_from_arrivals(sink.arrivals, fail_at, 0.02)
            assert recovery is not None, f"{name} never recovered"
            outages[name] = recovery.outage
        assert outages["arppath"] < 0.05
        assert outages["stp"] > 1.0  # scaled STP: ~3s

    def test_video_loss_free_repair_on_demo(self):
        sim = Simulator(seed=1)
        net = netfpga_demo(sim, arppath())
        net.run(5.0)
        source, sink = stream_between(net.host("A"), net.host("B"),
                                      fps=25.0)
        source.start()
        net.run(1.0)
        net.bridge("NF1").path_port_for(sink.host.mac).link.take_down()
        net.run(2.0)
        source.stop()
        net.run(0.5)
        assert sink.received == source.sent


class TestMixedWorkloads:
    def test_many_hosts_resolve_concurrently(self):
        sim = Simulator(seed=1)
        net = ring(sim, arppath(), 5, hosts_per_bridge=2)
        net.run(5.0)
        hosts = sorted(net.hosts)
        series = []
        for index, src in enumerate(hosts):
            dst = hosts[(index + 3) % len(hosts)]
            s = PingSeries(net.host(src), net.host(dst).ip, count=3,
                           interval=0.05)
            s.start()
            series.append(s)
        net.run(3.0)
        for s in series:
            s.finalize()
            assert s.losses == 0

    def test_video_and_pings_coexist(self):
        sim = Simulator(seed=1)
        net = netfpga_demo(sim, arppath())
        net.run(5.0)
        source, sink = stream_between(net.host("A"), net.host("B"),
                                      fps=25.0)
        source.start()
        series = PingSeries(net.host("B"), net.host("A").ip, count=10,
                            interval=0.1)
        series.start()
        net.run(3.0)
        source.stop()
        series.finalize()
        assert series.losses == 0
        assert sink.received == source.sent

    def test_deterministic_replay(self):
        """Two identical runs produce byte-identical event streams."""

        def run_once():
            sim = Simulator(seed=99)
            net = netfpga_demo(sim, arppath())
            net.run(5.0)
            ping_once(net, "A", "B")
            net.link_between("NF1", "NF2").take_down()
            ping_once(net, "A", "B")
            return (sim.events_processed, sim.tracer.frames_sent,
                    sim.tracer.frames_delivered, round(sim.now, 9))

        assert run_once() == run_once()


class TestProtocolCoexistence:
    def test_arppath_islands_bridged_by_learning_switch(self):
        """ARP-Path bridges interoperate with a dumb switch between
        them (transparency at the Ethernet level)."""
        sim = Simulator(seed=1)
        from repro.topology.builder import Network
        net = Network(sim, bridge_factory=arppath())
        net.add_bridge("AP0")
        net.add_bridge("SW", factory=learning())
        net.add_bridge("AP1")
        net.add_host("H0")
        net.add_host("H1")
        net.link("AP0", "SW")
        net.link("SW", "AP1")
        net.attach("H0", "AP0")
        net.attach("H1", "AP1")
        net.run(5.0)
        assert ping_once(net, "H0", "H1") is not None
