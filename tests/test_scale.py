"""Tests for the scale subsystem: topologies, scenario, meminfo, bulk
announcements.

The golden regression (seed 0, smallest grid) pins the scale rows
exactly: the scenario's records are a pure function of (kind, size,
protocol, seed), and CI's scale smoke relies on that to byte-compare
``--jobs 1`` against ``--jobs 2``.
"""

import pytest

from repro.experiments import registry
from repro.experiments.scale import run_case
from repro.netsim.engine import Simulator
from repro.netsim.errors import TopologyError
from repro.netsim.meminfo import (MemorySampler, peak_rss_bytes,
                                  rss_bytes)
from repro.topology import arppath, learning
from repro.topology.library import (SCALE_TOPOLOGIES, pair,
                                    scale_topology)


class TestScaleTopology:
    def test_grid_hits_target_size(self, sim):
        net, src, dst = scale_topology(sim, arppath(), "grid", 16)
        assert len(net.bridges) == 16
        assert {src, dst} <= set(net.hosts)

    def test_grid_hosts_at_opposite_corners(self, sim):
        net, src, dst = scale_topology(sim, arppath(), "grid", 9)
        assert net.bridge_for_host(src).name == "B0_0"
        assert net.bridge_for_host(dst).name == "B2_2"

    def test_fat_tree_rounds_to_pods(self, sim):
        net, src, dst = scale_topology(sim, arppath(), "fat_tree", 15)
        # pods = round(15 * 2/3) = 10 leaves + 5 spines.
        assert len(net.bridges) == 15
        assert len(net.hosts) == 10
        assert src != dst

    def test_random_is_exact(self, sim):
        net, _, _ = scale_topology(sim, arppath(), "random", 12)
        assert len(net.bridges) == 12

    def test_line_is_loop_free(self, sim):
        net, src, dst = scale_topology(sim, arppath(), "line", 6)
        assert len(net.bridges) == 6
        assert len(net.fabric_links()) == 5

    def test_too_small_rejected(self, sim):
        with pytest.raises(TopologyError):
            scale_topology(sim, arppath(), "grid", 3)

    def test_unknown_kind_rejected(self, sim):
        with pytest.raises(TopologyError):
            scale_topology(sim, arppath(), "torus", 16)

    def test_every_kind_builds(self):
        for kind in SCALE_TOPOLOGIES:
            sim = Simulator(seed=0)
            net, src, dst = scale_topology(sim, arppath(), kind, 9)
            assert len(net.bridges) >= 4
            assert src in net.hosts and dst in net.hosts


class TestScaleGolden:
    """Regression: scale rows at seed 0 on the smallest grid, pinned."""

    def result(self):
        return registry.get("scale").execute(sizes=[9], protocols=["arppath"],
                                             pairs=1, probes=1, seeds=[0])

    def test_pinned_row(self):
        from repro.experiments.common import spec
        result = self.result()
        (row,) = result
        cell = run_case(spec("arppath"), "grid", 9, pairs=1, probes=1,
                        seed=0)
        assert row["protocol"] == "arppath"
        assert row["kind"] == "grid"
        assert row["size"] == 9
        assert row["bridges"] == 9
        assert row["links"] == 16
        assert row["hosts"] == 4
        assert row["frames_sent"] == 78
        assert row["arp_frames"] == 26
        assert row["control_frames"] == 28
        assert row["payloads_delivered"] == 4
        assert row["peak_state"] == 2
        assert row["probes_sent"] == 2
        assert row["probes_answered"] == 2
        assert row["frames_per_payload"] == pytest.approx(19.5)
        assert row["mean_state"] == pytest.approx(10 / 9)
        assert row["convergence_ms"] == pytest.approx(0.1999, rel=1e-3)
        # Engine bookkeeping is deterministic but describes the
        # simulator, not the fabric: pinned on the ScaleRow, absent from
        # the records, as is process RSS. PR 5's free-running
        # transmitters dropped peak_pending_events from 75 and
        # events_processed from 569 while every frame-level and timing
        # metric above stayed byte-identical; aging buckets armed when
        # near (``netsim.aging``) dropped it from 47 — at the peak five
        # buckets due minutes ahead wait in their stores, off the heap —
        # with the same events in the same order.
        assert cell.peak_pending_events == 42
        assert cell.events_processed == 323
        assert cell.events_per_payload == pytest.approx(80.75)
        assert result.telemetry == {"events_processed": [323],
                                    "peak_pending_events": [42]}
        assert not {"peak_pending_events", "peak_wheel_timers",
                    "events_processed", "events_per_payload"} & set(row)
        assert "peak_rss" not in "".join(row)

    def test_rows_are_reproducible(self):
        assert self.result() == self.result()


def run_scale(**overrides):
    return registry.get("scale").execute(**overrides)


class TestScaleScenario:
    def test_state_grows_for_spb_not_arppath(self):
        result = run_scale(kind="grid", sizes=[9, 16],
                           protocols=["arppath", "spb"], pairs=1,
                           probes=1, seeds=[0])
        by_protocol = {}
        for row in result:
            by_protocol.setdefault(row["protocol"], []).append(
                row["peak_state"])
        arp_small, arp_large = by_protocol["arppath"]
        spb_small, spb_large = by_protocol["spb"]
        # Link-state replicates the topology everywhere: state grows
        # with the network. ARP-Path state follows conversations only.
        assert spb_large > spb_small
        assert arp_large <= spb_small
        assert arp_large == arp_small

    def test_learning_gated_to_loop_free(self):
        with pytest.raises(ValueError, match="storms"):
            run_scale(kind="grid", sizes=[9], protocols=["learning"])

    def test_learning_runs_on_line(self):
        result = run_scale(kind="line", sizes=[4],
                           protocols=["learning"], pairs=1, probes=1,
                           seeds=[0])
        (row,) = result
        assert row["probes_answered"] >= 1
        assert row["peak_state"] >= 1

    def test_run_case_deterministic(self):
        from repro.experiments.common import spec
        one = run_case(spec("arppath"), "random", 8, pairs=1, probes=1,
                       seed=3)
        two = run_case(spec("arppath"), "random", 8, pairs=1, probes=1,
                       seed=3)
        assert one == two


class TestPopulationScale:
    """endpoints_per_port > 1: flyweight populations in the size sweep."""

    def test_population_cell_deterministic(self):
        from repro.experiments.common import spec
        one = run_case(spec("arppath"), "grid", 9, pairs=2, probes=2,
                       seed=1, endpoints_per_port=10)
        two = run_case(spec("arppath"), "grid", 9, pairs=2, probes=2,
                       seed=1, endpoints_per_port=10)
        assert one == two
        assert one.hosts == 4
        assert one.endpoints == 40
        assert one.payloads_delivered > 0

    def test_population_cell_shard_parity(self):
        from repro.experiments.common import spec
        from repro.experiments.scale import run_case_sharded
        single = run_case(spec("arppath"), "grid", 9, pairs=2, probes=2,
                          seed=1, endpoints_per_port=10)
        sharded = run_case_sharded(spec("arppath"), "grid", 9, pairs=2,
                                   probes=2, seed=1, shards=3,
                                   endpoints_per_port=10)
        assert single == sharded

    def test_default_keeps_endpoints_equal_hosts(self):
        from repro.experiments.common import spec
        row = run_case(spec("arppath"), "grid", 9, pairs=1, probes=1,
                       seed=0)
        assert row.endpoints == row.hosts


class TestBridgeStateEntries:
    def test_learning_switch_counts_fdb(self):
        sim = Simulator(seed=0)
        net = pair(sim, learning())
        net.run(1.0)
        net.host("H0").ping(net.host("H1").ip)
        net.run(1.0)
        assert all(b.state_entries() >= 2
                   for b in net.bridges.values())


class TestMeminfo:
    def test_rss_positive(self):
        assert rss_bytes() > 0

    def test_peak_at_least_current(self):
        # Current first: the high-water mark can only grow after it.
        current = rss_bytes()
        assert peak_rss_bytes() >= current

    def test_sampler_tracks_engine_peaks(self):
        sim = Simulator(seed=0)
        sampler = MemorySampler(sim, interval=0.1)
        sampler.start()
        events = [sim.schedule(0.35, lambda: None) for _ in range(50)]
        sim.run_for(1.0)
        sampler.stop()
        assert sampler.samples > 2
        # The 50 events were pending at the first samples.
        assert sampler.peak_pending_events >= 50
        assert sampler.peak_pending_events >= sim.pending_events
        assert events[0].cancelled is False

    def test_sampler_stop_cancels_timer(self):
        sim = Simulator(seed=0)
        sampler = MemorySampler(sim, interval=0.1)
        sampler.start()
        sim.run_for(0.25)
        sampler.stop()
        assert sim.pending_events == 0
        sim.audit_pending_events()

    def test_sampler_rss_tracking_is_opt_in(self):
        sim = Simulator(seed=0)
        sampler = MemorySampler(sim, interval=0.1)
        sampler.start()
        sim.run_for(0.3)
        sampler.stop()
        assert sampler.peak_rss == 0  # off by default: records safety
        tracked = MemorySampler(sim, interval=0.1, track_rss=True)
        tracked.start()
        tracked.stop()
        assert tracked.peak_rss > 0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            MemorySampler(Simulator(seed=0), interval=0.0)


class TestAnnounceHosts:
    def test_all_hosts_announce_in_one_batch(self, sim):
        net = pair(sim, arppath())
        net.run(1.0)
        before = sum(h.counters.arp_requests_sent
                     for h in net.hosts.values())
        scheduled = net.announce_hosts()
        assert scheduled == 2
        net.run(0.5)
        after = sum(h.counters.arp_requests_sent
                    for h in net.hosts.values())
        assert after - before == 2

    def test_spacing_staggers_announcements(self, sim):
        net = pair(sim, arppath())
        net.run(1.0)
        start = sim.now
        net.announce_hosts(spacing=0.2, start=0.1)
        net.run(0.15)  # H0 announced, H1 not yet
        assert net.host("H0").counters.arp_requests_sent == 1
        assert net.host("H1").counters.arp_requests_sent == 0
        net.run(0.3)
        assert net.host("H1").counters.arp_requests_sent == 1
        assert sim.now == pytest.approx(start + 0.45)
