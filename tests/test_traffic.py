"""Tests for the traffic workloads (video, ping, matrix)."""

import pytest

from repro.netsim.engine import Simulator
from repro.topology import arppath, fat_tree, pair
from repro.traffic.matrix import TrafficMatrix, all_pairs_arp_warmup
from repro.traffic.ping import PingSeries, ping_between
from repro.traffic.video import (VideoChunk, VideoSink, VideoSource,
                                 stream_between)


class TestVideoChunk:
    def test_wire_size(self):
        assert VideoChunk(seq=0, sent_at=0.0, size=1400).wire_size == 1400

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoChunk(seq=-1, sent_at=0.0)
        with pytest.raises(ValueError):
            VideoChunk(seq=0, sent_at=0.0, size=0)


class TestVideoStream:
    def test_stream_delivers_in_order(self, pair_net):
        source, sink = stream_between(pair_net.host("H0"),
                                      pair_net.host("H1"), fps=50.0)
        source.start()
        pair_net.run(1.0)
        source.stop()
        pair_net.run(0.2)
        assert sink.received == source.sent
        assert sink.seqs == sorted(sink.seqs)
        assert sink.reordered == 0 and sink.duplicates == 0

    def test_latency_measured(self, pair_net):
        source, sink = stream_between(pair_net.host("H0"),
                                      pair_net.host("H1"), fps=50.0)
        source.start()
        pair_net.run(0.5)
        source.stop()
        assert all(lat > 0 for lat in sink.latencies)

    def test_no_interruptions_on_healthy_net(self, pair_net):
        source, sink = stream_between(pair_net.host("H0"),
                                      pair_net.host("H1"), fps=50.0)
        source.start()
        pair_net.run(1.0)
        source.stop()
        assert sink.interruptions() == []

    def test_interruption_detected_with_repair(self, pair_net):
        """Repair buffers the outage: a stall is visible but nothing is
        lost — the chunks arrive late, in order."""
        source, sink = stream_between(pair_net.host("H0"),
                                      pair_net.host("H1"), fps=50.0)
        source.start()
        pair_net.run(0.5)
        wire = pair_net.link_between("B0", "B1")
        wire.take_down()
        pair_net.run(0.2)
        wire.bring_up()
        pair_net.run(1.0)  # repair revives the stream
        source.stop()
        stalls = sink.interruptions()
        assert len(stalls) == 1
        assert stalls[0].duration >= 0.2
        assert stalls[0].chunks_lost == 0  # buffered, not dropped

    def test_chunk_loss_counted_without_repair(self, sim):
        from repro.topology import arppath, pair
        from repro.testing import fast_config
        net = pair(sim, arppath(fast_config(repair_enabled=False)))
        net.run(3.0)
        # Establish the path before streaming.
        net.host("H0").ping(net.host("H1").ip)
        net.run(1.0)
        source, sink = stream_between(net.host("H0"), net.host("H1"),
                                      fps=50.0)
        source.start()
        net.run(0.5)
        fail_at = net.sim.now
        net.link_between("B0", "B1").take_down()
        net.run(2.0)
        source.stop()
        # No repair: the stream dies at the failure and loss accumulates.
        assert sink.arrivals[-1] <= fail_at + 0.1
        assert sink.lost_chunks(source.sent) > 0

    def test_lost_chunks_accounting(self, pair_net):
        source, sink = stream_between(pair_net.host("H0"),
                                      pair_net.host("H1"), fps=50.0)
        source.start()
        pair_net.run(1.0)
        source.stop()
        pair_net.run(0.2)
        assert sink.lost_chunks(source.sent) == 0

    def test_double_start_rejected(self, pair_net):
        source, _sink = stream_between(pair_net.host("H0"),
                                       pair_net.host("H1"))
        source.start()
        with pytest.raises(RuntimeError):
            source.start()

    def test_bad_fps_rejected(self, pair_net):
        with pytest.raises(ValueError):
            VideoSource(pair_net.host("H0"), pair_net.host("H1").ip, fps=0)


class TestPingSeries:
    def test_all_probes_answered(self, pair_net):
        series = ping_between(pair_net, "H0", "H1", count=5, interval=0.05)
        pair_net.run(2.0)
        assert len(series.rtts) == 5
        assert series.losses == 0

    def test_results_ordered_by_seq(self, pair_net):
        series = ping_between(pair_net, "H0", "H1", count=5, interval=0.05)
        pair_net.run(2.0)
        assert [r.seq for r in series.results] == list(range(5))

    def test_losses_detected(self, pair_net):
        # Cut the fabric permanently after the second probe.
        pair_net.sim.schedule(
            0.06, pair_net.link_between("B0", "B1").take_down)
        series = ping_between(pair_net, "H0", "H1", count=5, interval=0.05,
                              timeout=0.5)
        pair_net.run(3.0)
        assert series.losses >= 2
        assert series.loss_rate > 0

    def test_first_success_after(self, pair_net):
        series = ping_between(pair_net, "H0", "H1", count=5, interval=0.05)
        pair_net.run(2.0)
        assert series.first_success_after(0.0) is not None
        assert series.first_success_after(1e9) is None

    def test_validation(self, pair_net):
        host = pair_net.host("H0")
        with pytest.raises(ValueError):
            PingSeries(host, pair_net.host("H1").ip, count=0)
        with pytest.raises(ValueError):
            PingSeries(host, pair_net.host("H1").ip, interval=0)

    def test_finalize_idempotent(self, pair_net):
        series = ping_between(pair_net, "H0", "H1", count=2, interval=0.05)
        pair_net.run(2.0)
        results_before = list(series.results)
        series.finalize()
        assert series.results == results_before


class TestTrafficMatrix:
    def test_all_pairs_count(self, sim):
        net = fat_tree(sim, arppath(), pods=2, hosts_per_edge=2)
        net.run(5.0)
        matrix = TrafficMatrix(net)
        flows = matrix.all_pairs(packets=2)
        assert len(flows) == 4 * 3

    def test_flows_deliver(self, sim):
        net = fat_tree(sim, arppath(), pods=2, hosts_per_edge=1)
        net.run(5.0)
        matrix = TrafficMatrix(net)
        matrix.all_pairs(packets=5, interval=1e-3, size=200)
        matrix.start()
        net.run(2.0)
        assert matrix.delivery_rate == 1.0
        assert matrix.total_sent == 2 * 5

    def test_latencies_recorded(self, sim):
        net = fat_tree(sim, arppath(), pods=2, hosts_per_edge=1)
        net.run(5.0)
        matrix = TrafficMatrix(net)
        matrix.all_pairs(packets=3, interval=1e-3)
        matrix.start()
        net.run(2.0)
        assert len(matrix.flow_latencies()) == matrix.total_received

    def test_random_pairs(self, sim):
        net = fat_tree(sim, arppath(), pods=4, hosts_per_edge=2)
        net.run(5.0)
        matrix = TrafficMatrix(net)
        flows = matrix.random_pairs(10, packets=1)
        assert len(flows) == 10
        assert len({(f.src, f.dst) for f in flows}) == 10

    def test_random_pairs_overflow_rejected(self, sim):
        net = fat_tree(sim, arppath(), pods=2, hosts_per_edge=1)
        net.run(1.0)
        matrix = TrafficMatrix(net)
        with pytest.raises(ValueError):
            matrix.random_pairs(100)

    def test_self_flow_rejected(self, sim):
        net = pair(sim, arppath())
        matrix = TrafficMatrix(net)
        with pytest.raises(ValueError):
            matrix.add_flow("H0", "H0")

    def test_warmup_resolves_everyone(self, sim):
        net = fat_tree(sim, arppath(), pods=2, hosts_per_edge=1)
        net.run(5.0)
        all_pairs_arp_warmup(net, spacing=2e-3)
        h0 = net.host("H0")
        h1 = net.host("H1")
        assert h0.arp_cache.lookup(h1.ip, sim.now) == h1.mac
        assert h1.arp_cache.lookup(h0.ip, sim.now) == h0.mac
