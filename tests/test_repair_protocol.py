"""End-to-end tests for Path Repair (paper §2.1.4).

The PathFail → PathRequest → PathReply exchange, exercised inside real
simulated networks with injected failures.
"""

import pytest

from repro import check
from repro.netsim.dynamics import EventTimeline
from repro.netsim.engine import Simulator
from repro.netsim.errors import InvariantError
from repro.topology import arppath, grid, line, netfpga_demo, pair
from repro.traffic.matrix import TrafficMatrix

from repro.testing import fast_config


def established_stream(net, src="H0", dst="H1"):
    """Resolve ARP and pass one datagram so the path is LEARNT."""
    source, sink = net.host(src), net.host(dst)
    got = []
    sink.bind_udp(7000, lambda sip, sp, payload, pkt: got.append(payload))
    source.send_udp(sink.ip, 7000, 7000, b"prime")
    net.run(1.0)
    assert got == [b"prime"]
    return source, sink, got


class TestRepairAfterLinkFailure:
    def test_stream_survives_failure(self, sim):
        net = line(sim, arppath(fast_config()), 3)
        net.run(3.0)
        source, sink, got = established_stream(net)
        # No redundancy in a line: bring link down and back up; the
        # repair triggered by the next frame must rebuild the path.
        net.link_between("B0", "B1").take_down()
        net.run(0.1)
        net.link_between("B0", "B1").bring_up()
        net.run(0.5)
        source.send_udp(sink.ip, 7000, 7000, b"after")
        net.run(1.0)
        assert b"after" in got

    def test_repair_uses_alternate_path(self, demo_net):
        source, sink, got = established_stream(demo_net, "A", "B")
        # ARP-Path chose a ring path; cut its first hop.
        nf1 = demo_net.bridge("NF1")
        b_port = nf1.path_port_for(sink.mac)
        assert b_port is not None
        b_port.link.take_down()
        source.send_udp(sink.ip, 7000, 7000, b"rerouted")
        demo_net.run(1.0)
        assert b"rerouted" in got
        assert sum(b.repair.counters.completed
                   for b in demo_net.bridges.values()) >= 1

    def test_repair_time_recorded(self, demo_net):
        source, sink, _got = established_stream(demo_net, "A", "B")
        nf1 = demo_net.bridge("NF1")
        nf1.path_port_for(sink.mac).link.take_down()
        source.send_udp(sink.ip, 7000, 7000, b"x")
        demo_net.run(1.0)
        times = [t for b in demo_net.bridges.values()
                 for t in b.repair.repair_times]
        assert len(times) == 1
        assert 0 < times[0] < 0.1

    def test_first_frame_is_buffered_and_delivered(self, demo_net):
        """The frame that triggered the repair is not lost."""
        source, sink, got = established_stream(demo_net, "A", "B")
        nf1 = demo_net.bridge("NF1")
        nf1.path_port_for(sink.mac).link.take_down()
        source.send_udp(sink.ip, 7000, 7000, b"triggering")
        demo_net.run(1.0)
        assert b"triggering" in got

    def test_bidirectional_traffic_after_repair(self, demo_net):
        source, sink, got = established_stream(demo_net, "A", "B")
        back = []
        source.bind_udp(7001, lambda sip, sp, payload, pkt:
                        back.append(payload))
        nf1 = demo_net.bridge("NF1")
        nf1.path_port_for(sink.mac).link.take_down()
        source.send_udp(sink.ip, 7000, 7000, b"fwd")
        demo_net.run(1.0)
        sink.send_udp(source.ip, 7001, 7001, b"rev")
        demo_net.run(1.0)
        assert b"rev" in back


class TestPathFailRouting:
    def test_midpath_failure_sends_pathfail_to_edge(self, sim):
        """Failure deep in the fabric: the detecting bridge is not the
        edge, so a PathFail must relay back before the repair starts."""
        net = line(sim, arppath(fast_config()), 4)
        net.run(3.0)
        source, sink, got = established_stream(net)
        # Cut between B2 and B3 (the far end); B2 detects on next frame.
        net.link_between("B2", "B3").take_down()
        net.run(0.1)
        net.link_between("B2", "B3").bring_up()
        net.run(0.5)
        source.send_udp(sink.ip, 7000, 7000, b"post-fail")
        net.run(2.0)
        assert b"post-fail" in got
        fails = sum(b.repair.counters.fails_sent + b.apc.path_fails_seen
                    for b in net.bridges.values())
        assert fails > 0

    def test_expired_entry_triggers_repair_not_flood(self, sim):
        """A unicast miss from entry expiry at the edge repairs silently.

        Only the source edge bridge's entry is aged out (the realistic
        transient — learnt timeouts exceed host ARP timeouts, so the
        whole fabric never forgets a live host at once).
        """
        net = pair(sim, arppath(fast_config()))
        net.run(3.0)
        source, sink, got = established_stream(net)
        b0 = net.bridge("B0")
        assert b0.table.remove(sink.mac)  # simulate expiry at the edge
        flooded_before = b0.counters.flooded_frames
        source.send_udp(sink.ip, 7000, 7000, b"revived")
        net.run(1.0)
        assert b"revived" in got
        assert sum(b.repair.counters.started
                   for b in net.bridges.values()) >= 1
        # The data frame itself was never blind-flooded.
        assert b0.counters.flooded_frames <= flooded_before + 1


class TestRepairBuffering:
    def test_frames_buffered_during_repair(self, demo_net):
        source, sink, got = established_stream(demo_net, "A", "B")
        nf1 = demo_net.bridge("NF1")
        nf1.path_port_for(sink.mac).link.take_down()
        # Burst of frames while the repair runs.
        for index in range(5):
            source.send_udp(sink.ip, 7000, 7000, bytes([index]))
        demo_net.run(1.0)
        payloads = [p for p in got if p != b"prime"]
        assert payloads == [bytes([i]) for i in range(5)]

    def test_buffer_overflow_drops_extras(self, sim):
        config = fast_config(repair_buffer_size=2,
                             repair_retry_timeout=0.5)
        net = netfpga_demo(sim, arppath(config))
        net.run(3.0)
        source, sink, got = established_stream(net, "A", "B")
        nf1 = net.bridge("NF1")
        nf1.path_port_for(sink.mac).link.take_down()
        for index in range(6):
            source.send_udp(sink.ip, 7000, 7000, bytes([index]))
        net.run(2.0)
        delivered = [p for p in got if p != b"prime"]
        assert len(delivered) <= 3  # trigger frame + 2 buffered


class TestRepairExhaustion:
    def test_unreachable_target_abandons(self, sim):
        """Destination completely cut off: retries exhaust, buffer drops."""
        config = fast_config(repair_retries=2, repair_retry_timeout=0.05)
        net = pair(sim, arppath(config))
        net.run(3.0)
        source, sink, _got = established_stream(net)
        # Isolate H1 entirely.
        net.link_between("H1", "B1").take_down()
        net.link_between("B0", "B1").take_down()
        source.send_udp(sink.ip, 7000, 7000, b"void")
        net.run(2.0)
        abandoned = sum(b.repair.counters.abandoned
                        for b in net.bridges.values())
        assert abandoned >= 1
        pending = sum(len(b.repair) for b in net.bridges.values())
        assert pending == 0

    def test_retries_rebroadcast(self, sim):
        config = fast_config(repair_retries=3, repair_retry_timeout=0.05)
        net = pair(sim, arppath(config))
        net.run(3.0)
        source, sink, _got = established_stream(net)
        net.link_between("H1", "B1").take_down()
        net.link_between("B0", "B1").take_down()
        source.send_udp(sink.ip, 7000, 7000, b"void")
        net.run(2.0)
        retries = sum(b.repair.counters.retries
                      for b in net.bridges.values())
        assert retries == 3


class TestSuccessiveFailures:
    def test_demo_scenario(self, sim):
        """The paper's §3.2 script: repeated failures, stream survives
        as long as connectivity remains."""
        net = netfpga_demo(sim, arppath())
        net.run(5.0)
        source, sink, got = established_stream(net, "A", "B")
        sent = [1]

        def tick():
            source.send_udp(sink.ip, 7000, 7000, b"s%d" % sent[0])
            sent[0] += 1

        timer = sim.schedule_periodic(0.02, tick)
        net.run(0.5)
        net.link_between("NF1", "NF2").take_down()
        net.run(1.0)
        net.link_between("NF4", "NF1").take_down()
        net.run(1.0)
        timer.stop()
        net.run(0.5)
        # Only the cross link remains: traffic still flows.
        received = len(got) - 1  # minus the priming datagram
        assert received >= sent[0] - 1 - 4  # at most a few lost in repair

    def test_repair_after_repair(self, demo_net):
        source, sink, got = established_stream(demo_net, "A", "B")
        nf1 = demo_net.bridge("NF1")
        for marker in (b"one", b"two"):
            port = nf1.path_port_for(sink.mac)
            assert port is not None
            port.link.take_down()
            source.send_udp(sink.ip, 7000, 7000, marker)
            demo_net.run(2.0)
            assert marker in got
        completed = sum(b.repair.counters.completed
                        for b in demo_net.bridges.values())
        assert completed == 2


class TestHostTransparency:
    def test_hosts_receive_no_control_frames(self, demo_net):
        """Repair control traffic must never surface at host sockets."""
        source, sink, _got = established_stream(demo_net, "A", "B")
        nf1 = demo_net.bridge("NF1")
        nf1.path_port_for(sink.mac).link.take_down()
        source.send_udp(sink.ip, 7000, 7000, b"x")
        demo_net.run(1.0)
        for host in demo_net.hosts.values():
            assert host.counters.udp_unbound == 0
            assert host.counters.ip_foreign == 0


# -- the open repair-race loop -----------------------------------------------

@pytest.mark.unchecked    # the checker is attached below, not by conftest
@pytest.mark.xfail(strict=True, raises=InvariantError, reason=(
    "a PathFail toward a host erases the race memory of that host's own "
    "PathRequest, so a late copy is relayed a second time (ROADMAP "
    "item 9); the change that fixes it removes this mark"))
def test_a_repair_race_under_churn_relays_no_copy_twice():
    sim = Simulator(seed=1)
    checker = check.attach(sim)
    net = grid(sim, arppath(), 3, 3, latency_jitter=0.3, seed=1)
    net.run(2.0)
    timeline = EventTimeline(net)
    timeline.random_churn(1, start=3.0, duration=40.0, flap_rate=0.5,
                          mean_down_time=0.5)
    timeline.arm()
    matrix = TrafficMatrix(net)
    matrix.random_pairs(4, packets=300, interval=0.1)
    matrix.start()
    net.run(45.0)
    checker.close()
