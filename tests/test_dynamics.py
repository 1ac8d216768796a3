"""Tests for the churn subsystem: the event timeline and the Network
dynamics primitives (detach / migrate / crash / restart)."""

import pytest

from repro.netsim.dynamics import (BRIDGE_RESTART, ChurnEvent, EventTimeline,
                                   HOST_MIGRATE, LINK_DOWN, LINK_UP)
from repro.netsim.engine import PRIORITY_LATE
from repro.netsim.errors import SchedulingError, TopologyError
from repro.topology import arppath, learning, line, netfpga_demo, pair
from repro.traffic.video import stream_between

from repro.testing import ping_once


@pytest.fixture
def demo(sim):
    net = netfpga_demo(sim, arppath())
    net.run(5.0)
    return net


class TestChurnEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(1.0, "meteor_strike", "NF1")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(-1.0, LINK_DOWN, "NF1-NF2")


class TestTimelineScripting:
    def test_flap_adds_down_then_up(self, demo):
        timeline = EventTimeline(demo)
        timeline.add_flap("NF1-NF2", at=6.0, down_for=0.5)
        kinds = [(e.kind, e.time) for e in timeline.events]
        assert kinds == [(LINK_DOWN, 6.0), (LINK_UP, 6.5)]

    def test_nonpositive_down_for_rejected(self, demo):
        timeline = EventTimeline(demo)
        with pytest.raises(SchedulingError):
            timeline.add_flap("NF1-NF2", at=6.0, down_for=0.0)

    def test_random_churn_is_deterministic(self, demo):
        first = EventTimeline(demo)
        second = EventTimeline(demo)
        for timeline in (first, second):
            timeline.random_churn(seed=7, start=6.0, duration=10.0,
                                  flap_rate=1.0, crashes=2, migrations=1)
        assert first.events == second.events
        assert len(first.events) > 0

    def test_different_seeds_differ(self, demo):
        first = EventTimeline(demo)
        first.random_churn(seed=1, start=6.0, duration=10.0, flap_rate=2.0)
        second = EventTimeline(demo)
        second.random_churn(seed=2, start=6.0, duration=10.0, flap_rate=2.0)
        assert first.events != second.events

    def test_zero_rate_generates_nothing(self, demo):
        timeline = EventTimeline(demo)
        added = timeline.random_churn(seed=0, start=6.0, duration=10.0,
                                      flap_rate=0.0)
        assert added == 0 and timeline.events == []

    def test_flaps_respect_link_whitelist(self, demo):
        timeline = EventTimeline(demo)
        timeline.random_churn(seed=3, start=6.0, duration=20.0,
                              flap_rate=2.0, links=["NF1-NF2"])
        assert {e.target for e in timeline.events} == {"NF1-NF2"}

    def test_flaps_default_to_fabric_links(self, demo):
        timeline = EventTimeline(demo)
        timeline.random_churn(seed=3, start=6.0, duration=20.0,
                              flap_rate=2.0)
        fabric = {wire.name for wire in demo.fabric_links()}
        assert {e.target for e in timeline.events} <= fabric

    def test_migration_needs_two_bridges(self, sim):
        net = pair(sim, arppath())
        net.run(2.0)
        timeline = EventTimeline(net)
        # Two bridges exist, so one migration target is always available.
        timeline.random_churn(seed=0, start=3.0, duration=2.0, migrations=2)
        moves = [e for e in timeline.events if e.kind == HOST_MIGRATE]
        assert len(moves) == 2


class TestTimelineExecution:
    def test_events_fire_at_scheduled_times(self, demo):
        timeline = EventTimeline(demo)
        timeline.add_flap("NF1-NF2", at=6.0, down_for=0.5)
        timeline.arm()
        wire = demo.links["NF1-NF2"]
        demo.run(6.2 - demo.sim.now)
        assert not wire.up
        demo.run(0.5)
        assert wire.up
        assert [e.kind for e in timeline.executed] == [LINK_DOWN, LINK_UP]
        assert timeline.executed[0].time == pytest.approx(6.0)
        assert timeline.counts["flaps"] == 1

    def test_arm_twice_rejected(self, demo):
        timeline = EventTimeline(demo)
        timeline.arm()
        with pytest.raises(SchedulingError):
            timeline.arm()

    def test_add_after_arm_rejected(self, demo):
        timeline = EventTimeline(demo)
        timeline.arm()
        with pytest.raises(SchedulingError):
            timeline.add_flap("NF1-NF2", at=6.0, down_for=0.5)

    def test_past_event_rejected(self, demo):
        timeline = EventTimeline(demo)
        timeline.add_flap("NF1-NF2", at=1.0, down_for=0.5)  # now is 5.0
        with pytest.raises(SchedulingError):
            timeline.arm()

    def test_events_are_pending_late_timers(self, demo):
        """One at a time: each firing puts the next on the heap."""
        timeline = EventTimeline(demo)
        timeline.add_flap("NF1-NF2", at=6.0, down_for=0.5)
        timeline.arm()

        def armed():
            return sorted((time, priority)
                          for time, priority, _, event in demo.sim._queue
                          if event.callback == timeline._fire
                          and not event.cancelled)

        assert armed() == [(6.0, PRIORITY_LATE)]
        demo.sim.run(until=6.0)
        assert armed() == [(6.5, PRIORITY_LATE)]
        demo.sim.run(until=6.5)
        assert armed() == []

    def test_traffic_flows_again_after_flap(self, demo):
        timeline = EventTimeline(demo)
        timeline.add_flap("NF1-NF2", at=6.0, down_for=0.5)
        timeline.arm()
        demo.run(2.0)
        assert ping_once(demo, "A", "B") is not None

    def test_nothing_is_delivered_over_a_dead_link(self, demo):
        """``Link._deliver`` checks no carrier: ``take_down`` cancels
        every delivery in flight, so under flaps, crashes and
        migrations no link may count a delivery while it is down or
        detached (:mod:`repro.check`'s ``dead-link`` invariant)."""
        sim = demo.sim
        demo.run(0.01)              # the t=5 s hellos land: wires idle
        source, sink = stream_between(demo.host("A"), demo.host("B"),
                                      fps=10000.0)
        source.start()
        timeline = EventTimeline(demo)
        timeline.random_churn(seed=5, start=sim.now + 0.1, duration=4.0,
                              flap_rate=10.0, mean_down_time=0.05,
                              crashes=2, migrations=2)
        timeline.arm()
        demo.run(4.5)
        source.stop()
        demo.run(1.0)
        assert sink.received > 5000 and timeline.counts["flaps"] > 20
        # The guard had something to guard: frames did die in flight
        # (conservation: sent = delivered + in-flight drops + pending).
        still_flying = sum(len(direction.pending)
                           for wire in demo.links.values()
                           for direction in wire._dirs.values())
        assert (sim.tracer.frames_sent - sim.tracer.frames_delivered
                - still_flying) > 0

    def test_overlapping_outages_restart_once(self, demo):
        """Two overlapping outages of one bridge must end in exactly
        one restart — and must not leak a duplicate hello timer."""
        timeline = EventTimeline(demo)
        timeline.add_bridge_outage("NF2", at=6.0, down_for=2.0)
        timeline.add_bridge_outage("NF2", at=6.5, down_for=0.5)  # inside
        timeline.arm()
        demo.run(6.8 - demo.sim.now)
        # First restart instant passed, but the outer outage still runs.
        bridge_links = [w for w in demo.links.values()
                        if w.port_a.node.name == "NF2"
                        or w.port_b.node.name == "NF2"]
        assert all(not w.up for w in bridge_links)
        demo.run(8.5 - demo.sim.now)
        assert all(w.up for w in bridge_links)
        assert timeline.counts["crashes"] == 2
        assert timeline.counts["restarts"] == 1
        # One periodic hello process: seq advances ~1/s, not 2/s.
        bridge = demo.bridge("NF2")
        seq_before = bridge._hello_seq
        demo.run(3.0)
        assert bridge._hello_seq - seq_before <= 4

    def test_flap_up_during_crash_is_deferred(self, demo):
        """A flap's LINK_UP on a dead bridge's link must not revive the
        link (stale pre-crash state would forward frames); carrier
        returns with the bridge's restart instead."""
        timeline = EventTimeline(demo)
        timeline.add_flap("NF1-NF2", at=6.0, down_for=1.0)  # up at 7.0
        timeline.add_bridge_outage("NF2", at=6.5, down_for=2.0)  # to 8.5
        timeline.arm()
        wire = demo.links["NF1-NF2"]
        demo.run(7.2 - demo.sim.now)
        assert not wire.up  # up event fired at 7.0 but NF2 is dead
        demo.run(8.7 - demo.sim.now)
        assert wire.up  # restored by the restart

    def test_overlapping_flaps_of_one_link_restore_once(self, demo):
        """A nested shorter flap must not revive a link while an
        earlier, longer flap window is still open."""
        timeline = EventTimeline(demo)
        timeline.add_flap("NF1-NF2", at=6.0, down_for=4.0)  # to 10.0
        timeline.add_flap("NF1-NF2", at=7.0, down_for=1.0)  # inside
        timeline.arm()
        wire = demo.links["NF1-NF2"]
        demo.run(8.5 - demo.sim.now)
        assert not wire.up  # nested LINK_UP at 8.0 must not revive it
        demo.run(10.2 - demo.sim.now)
        assert wire.up

    def test_flap_window_survives_bridge_restart(self, demo):
        """A restart must not restore a link whose flap window is
        still open; carrier returns at the flap's own LINK_UP."""
        timeline = EventTimeline(demo)
        timeline.add_bridge_outage("NF2", at=6.5, down_for=1.0)  # to 7.5
        timeline.add_flap("NF1-NF2", at=6.0, down_for=3.0)  # to 9.0
        timeline.arm()
        wire = demo.links["NF1-NF2"]
        demo.run(7.8 - demo.sim.now)  # restart done, flap still open
        assert not wire.up
        demo.run(9.2 - demo.sim.now)
        assert wire.up

    def test_migration_to_crashed_bridge_waits_for_restart(self, demo):
        """Plugging into a powered-off switch gives no carrier until
        the bridge restarts (and never exposes stale crash state)."""
        timeline = EventTimeline(demo)
        timeline.add_bridge_outage("NF2", at=6.0, down_for=2.0)  # to 8.0
        timeline.add_migration("A", at=7.0, to_bridge="NF2")
        timeline.arm()
        demo.run(7.5 - demo.sim.now)
        host_link = demo.host("A").port.link
        assert host_link is not None and not host_link.up
        demo.run(8.2 - demo.sim.now)
        assert demo.host("A").port.link.up
        assert demo.bridge_for_host("A").name == "NF2"

    def test_hold_down_pins_link_against_flap_restore(self, demo):
        """A scripted permanent cut (hold_down) must survive an
        overlapping random flap's LINK_UP."""
        timeline = EventTimeline(demo)
        timeline.add_flap("NF1-NF2", at=7.0, down_for=0.5)  # up at 7.5
        timeline.arm()
        wire = demo.links["NF1-NF2"]
        demo.sim.at(6.0, timeline.hold_down, "NF1-NF2")
        demo.run(8.0 - demo.sim.now)
        assert not wire.up  # the flap's LINK_UP must not revive the cut

    def test_unpaired_restart_respects_open_flap_window(self, demo):
        """A scripted restart without a matching crash restores the
        bridge's links — except one inside an open flap window."""
        timeline = EventTimeline(demo)
        timeline.add_flap("NF1-NF2", at=6.0, down_for=4.0)  # to 10.0
        timeline.add(ChurnEvent(7.0, BRIDGE_RESTART, "NF2"))
        timeline.arm()
        wire = demo.links["NF1-NF2"]
        demo.run(7.5 - demo.sim.now)
        assert not wire.up  # restart must not cut the flap short
        demo.run(10.2 - demo.sim.now)
        assert wire.up

    def test_flap_on_unregistered_link_is_skipped(self, pair_net):
        """A flap scheduled on a host link that a migration has since
        unregistered must be skipped, not crash the run."""
        timeline = EventTimeline(pair_net)
        timeline.add_flap("H1-B1", at=6.0, down_for=0.5)
        timeline.arm()
        pair_net.migrate_host("H1", "B0")  # deletes link H1-B1
        pair_net.run(2.0)  # both flap events fire harmlessly
        assert timeline.counts["flaps"] == 0

    def test_double_unpaired_restart_keeps_crash_accounting(self, demo):
        """Scripted restarts without crashes must not drive the crash
        depth negative and disable later crashed-bridge deferrals."""
        timeline = EventTimeline(demo)
        timeline.add(ChurnEvent(6.0, BRIDGE_RESTART, "NF2"))
        timeline.add(ChurnEvent(6.1, BRIDGE_RESTART, "NF2"))
        timeline.add_bridge_outage("NF2", at=7.0, down_for=2.0)  # to 9.0
        timeline.add_flap("NF1-NF2", at=7.2, down_for=0.5)  # up at 7.7
        timeline.arm()
        wire = demo.links["NF1-NF2"]
        demo.run(8.0 - demo.sim.now)
        assert not wire.up  # NF2 is crashed; the flap's up is deferred
        demo.run(9.2 - demo.sim.now)
        assert wire.up

    def test_zero_mean_down_time_rejected(self, demo):
        timeline = EventTimeline(demo)
        with pytest.raises(SchedulingError):
            timeline.random_churn(seed=0, start=6.0, duration=5.0,
                                  flap_rate=1.0, mean_down_time=0.0)

    def test_negative_flap_rate_rejected(self, demo):
        timeline = EventTimeline(demo)
        with pytest.raises(SchedulingError):
            timeline.random_churn(seed=0, start=6.0, duration=5.0,
                                  flap_rate=-1.0)

    def test_crash_then_restart_round_trip(self, demo):
        timeline = EventTimeline(demo)
        timeline.add_bridge_outage("NF2", at=6.0, down_for=1.0)
        timeline.arm()
        demo.run(6.5 - demo.sim.now)
        bridge_links = [w for w in demo.links.values()
                        if w.port_a.node.name == "NF2"
                        or w.port_b.node.name == "NF2"]
        assert all(not w.up for w in bridge_links)
        demo.run(1.0)
        assert all(w.up for w in bridge_links)
        assert timeline.counts["crashes"] == 1
        assert timeline.counts["restarts"] == 1
        assert ping_once(demo, "A", "B") is not None


class TestNetworkPrimitives:
    def test_detach_unregisters_link(self, pair_net):
        assert ping_once(pair_net, "H0", "H1") is not None
        bridge = pair_net.detach("H0")
        assert bridge == "B0"
        assert "H0-B0" not in pair_net.links
        assert pair_net.host("H0").port.link is None
        assert ping_once(pair_net, "H0", "H1") is None

    def test_detach_unattached_rejected(self, pair_net):
        pair_net.detach("H0")
        with pytest.raises(TopologyError):
            pair_net.detach("H0")

    def test_migrate_host_reaches_new_bridge(self, pair_net):
        # Ping within the GARP's lock window (0.8s): the announcement
        # LOCKS the host at its new bridge and the unicast confirms it.
        pair_net.migrate_host("H1", "B0")
        pair_net.run(0.1)
        assert pair_net.bridge_for_host("H1").name == "B0"
        assert ping_once(pair_net, "H0", "H1") is not None

    def test_migrate_back_and_forth(self, pair_net):
        pair_net.migrate_host("H1", "B0")
        pair_net.run(0.1)
        pair_net.migrate_host("H1", "B1")
        # Let the stale locks from the first move expire (0.8s), then
        # the migrated host talks: its ARP discovery rebuilds the path
        # in both directions.
        pair_net.run(1.0)
        assert pair_net.bridge_for_host("H1").name == "B1"
        assert ping_once(pair_net, "H1", "H0") is not None
        assert ping_once(pair_net, "H0", "H1") is not None

    def test_crash_takes_links_down_and_reports_them(self, pair_net):
        affected = pair_net.crash_bridge("B1")
        assert set(affected) == {"B0-B1", "H1-B1"}
        assert not pair_net.links["B0-B1"].up

    def test_migrate_preserves_access_link_parameters(self, pair_net):
        """The host moved, its NIC didn't: the new access link keeps
        the old latency/bandwidth unless explicitly overridden."""
        old = pair_net.host("H1").port.link
        old_latency, old_bandwidth = old.latency, old.bandwidth
        wire = pair_net.migrate_host("H1", "B0")
        assert wire.latency == old_latency
        assert wire.bandwidth == old_bandwidth

    def test_migrate_latency_override_wins(self, pair_net):
        wire = pair_net.migrate_host("H1", "B0", latency=5e-6)
        assert wire.latency == pytest.approx(5e-6)

    def test_migrate_to_unknown_bridge_leaves_host_attached(self,
                                                            pair_net):
        """A failed migration must not have detached the host first."""
        with pytest.raises(TopologyError):
            pair_net.migrate_host("H1", "nosuch")
        assert pair_net.host("H1").port.link is not None
        assert pair_net.bridge_for_host("H1").name == "B1"

    def test_crash_only_reports_previously_up_links(self, pair_net):
        pair_net.links["B0-B1"].take_down()
        affected = pair_net.crash_bridge("B1")
        assert affected == ["H1-B1"]

    def test_restart_wipes_arppath_table(self, pair_net):
        assert ping_once(pair_net, "H0", "H1") is not None
        bridge = pair_net.bridge("B1")
        assert len(bridge.table.entries(pair_net.sim.now)) > 0
        affected = pair_net.crash_bridge("B1")
        pair_net.run(0.5)
        pair_net.restart_bridge("B1", links=affected)
        assert bridge.table.entries(pair_net.sim.now) == []
        pair_net.run(1.0)
        # H1's first frame misses at the rebooted B1 and triggers Path
        # Repair (B0 still holds H0's learnt entry and answers); the
        # exchange re-learns both directions.
        assert ping_once(pair_net, "H1", "H0") is not None
        assert ping_once(pair_net, "H0", "H1") is not None

    def test_restart_wipes_learning_fdb(self, sim):
        net = line(sim, learning(), 2)
        net.run(1.0)
        assert ping_once(net, "H0", "H1") is not None
        bridge = net.bridge("B0")
        assert len(bridge.fdb) > 0
        net.crash_bridge("B0")
        net.run(0.1)
        net.restart_bridge("B0")
        assert len(bridge.fdb) == 0
        net.run(0.5)
        assert ping_once(net, "H0", "H1") is not None

    def test_restarted_bridge_reclassifies_ports(self, demo):
        """After a power cycle the hello exchange restores port roles."""
        bridge = demo.bridge("NF2")
        affected = demo.crash_bridge("NF2")
        demo.run(0.5)
        demo.restart_bridge("NF2", links=affected)
        assert bridge.neighbors == {}
        demo.run(3.0)  # a couple of hello intervals
        assert len(bridge.neighbors) == 2  # NF1 and NF3
