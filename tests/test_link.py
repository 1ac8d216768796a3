"""Tests for links: serialization, propagation, queues, carrier."""

import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check
from repro.frames.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.frames.mac import mac_for_host
from repro.netsim import tracer as trc
from repro.netsim.engine import Simulator
from repro.netsim.errors import InvariantError, TopologyError
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.switching.base import Bridge
from repro.testing import record_trace

H0, H1 = mac_for_host(0), mac_for_host(1)


class Sink(Node):
    """A node that records everything it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []
        self.carrier_events = []

    def handle_frame(self, port, frame):
        self.received.append((self.sim.now, port, frame))

    def link_state_changed(self, port, up):
        self.carrier_events.append((self.sim.now, port, up))


def make_frame(size_payload=100):
    return EthernetFrame(dst=H1, src=H0, ethertype=ETHERTYPE_IPV4,
                         payload=b"x" * size_payload)


@pytest.fixture
def wire(sim):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.add_port(), b.add_port(), latency=1e-3,
                bandwidth=1e6, queue_capacity=2, name="a-b")
    return a, b, link


class TestWiring:
    def test_self_port_rejected(self, sim):
        node = Sink(sim, "n")
        port = node.add_port()
        with pytest.raises(TopologyError):
            Link(sim, port, port)

    def test_double_attach_rejected(self, sim):
        a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
        pa = a.add_port()
        Link(sim, pa, b.add_port())
        with pytest.raises(TopologyError):
            Link(sim, pa, c.add_port())

    def test_negative_latency_rejected(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        with pytest.raises(TopologyError):
            Link(sim, a.add_port(), b.add_port(), latency=-1)

    def test_zero_bandwidth_rejected(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        with pytest.raises(TopologyError):
            Link(sim, a.add_port(), b.add_port(), bandwidth=0)

    def test_other_endpoint(self, wire):
        a, b, link = wire
        assert link.other(a.ports[0]) is b.ports[0]
        assert link.other(b.ports[0]) is a.ports[0]

    def test_other_rejects_foreign_port(self, sim, wire):
        _a, _b, link = wire
        stranger = Sink(sim, "s").add_port()
        with pytest.raises(TopologyError):
            link.other(stranger)

    def test_port_peer(self, wire):
        a, b, _link = wire
        assert a.ports[0].peer is b.ports[0]


class TestTiming:
    def test_delivery_time_is_serialization_plus_latency(self, sim, wire):
        a, b, link = wire
        frame = make_frame(100)  # 118B on wire -> 944 bits at 1e6 b/s
        a.ports[0].send(frame)
        sim.run()
        expected = frame.wire_size * 8 / 1e6 + 1e-3
        assert b.received[0][0] == pytest.approx(expected)

    def test_infinite_bandwidth_skips_serialization(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(sim, a.add_port(), b.add_port(), latency=2e-3, bandwidth=None)
        a.ports[0].send(make_frame())
        sim.run()
        assert b.received[0][0] == pytest.approx(2e-3)

    def test_back_to_back_frames_queue_behind_transmitter(self, sim, wire):
        a, b, link = wire
        frame = make_frame(100)
        ser = frame.wire_size * 8 / link.bandwidth
        a.ports[0].send(frame)
        a.ports[0].send(make_frame(100))
        sim.run()
        times = [t for t, _p, _f in b.received]
        assert times[1] - times[0] == pytest.approx(ser)

    def test_directions_are_independent(self, sim, wire):
        a, b, _link = wire
        a.ports[0].send(make_frame())
        b.ports[0].send(make_frame())
        sim.run()
        assert len(a.received) == 1 and len(b.received) == 1

    def test_send_is_copy_on_write(self, sim, wire):
        """Fan-out shares the frame object: no copy is ever taken — the
        delivered frame IS the sent frame, because a frame is never
        mutated once sent."""
        a, b, _link = wire
        frame = make_frame()
        a.ports[0].send(frame)
        sim.run()
        delivered = b.received[0][2]
        assert delivered is frame
        assert delivered.uid == frame.uid


class TestQueueing:
    def test_queue_overflow_drops(self, sim, wire):
        a, b, link = wire
        # 1 transmitting + 2 queued = 3 delivered; the rest tail-drop.
        for _ in range(6):
            a.ports[0].send(make_frame())
        sim.run()
        assert len(b.received) == 3
        assert sim.tracer.count(trc.DROP_QUEUE) == 3

    def test_queue_drops_counted_per_direction(self, sim):
        """Overflowing a 1-frame queue tail-drops and counts the loss."""
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = Link(sim, a.add_port(), b.add_port(), latency=1e-3,
                    bandwidth=1e6, queue_capacity=1, name="tiny")
        # 1 transmitting + 1 queued; the other three tail-drop.
        for _ in range(5):
            a.ports[0].send(make_frame())
        sim.run()
        assert len(b.received) == 2
        assert link.queue_drops == {"a.p0": 3, "b.p0": 0}
        assert sim.tracer.count(trc.DROP_QUEUE) == 3

    def test_stats_reports_queue_state(self, sim, wire):
        a, _b, link = wire
        for _ in range(3):
            a.ports[0].send(make_frame())
        stats = link.stats()
        assert stats["a.p0"]["busy"] is True
        assert stats["a.p0"]["queued"] == 2
        assert stats["a.p0"]["queue_drops"] == 0
        sim.run()
        stats = link.stats()
        assert stats["a.p0"]["busy"] is False
        assert stats["a.p0"]["queued"] == 0

    def test_queue_drains_in_order(self, sim, wire):
        a, b, _link = wire
        frames = [make_frame() for _ in range(3)]
        for frame in frames:
            a.ports[0].send(frame)
        sim.run()
        received_uids = [f.uid for _t, _p, f in b.received]
        assert received_uids == [f.uid for f in frames]

    def test_a_queue_is_non_empty_exactly_while_its_drain_is_armed(
            self, invariant_checks):
        """The busy test reads the drain, not the queue: between events
        one holds exactly when the other does, and the checker's
        ``drain`` rule names a drain left armed over an empty queue."""
        invariant_checks.on = False     # one checker: this test's own
        sim = Simulator(seed=1)
        checker = check.attach(sim)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = Link(sim, a.add_port(), b.add_port(), latency=1e-3,
                    bandwidth=1e6, queue_capacity=2)
        direction = link._dirs[a.ports[0]]
        for _ in range(3):
            a.ports[0].send(make_frame())
        assert len(direction.queue) == 2 and direction.drain_event
        while sim.pending_events:
            sim.run(max_events=1)
            checker.audit()
            assert bool(direction.queue) == bool(direction.drain_event)
        assert len(b.received) == 3
        direction.drain_event = sim.schedule(1.0, link._drain, direction)
        with pytest.raises(InvariantError, match="^drain: "):
            checker.audit()
        direction.drain_event.cancel()


class TestCarrier:
    def test_down_drops_in_flight(self, sim, wire):
        a, b, link = wire
        a.ports[0].send(make_frame())
        sim.schedule(1e-4, link.take_down)  # before delivery at ~1.9ms
        sim.run()
        assert b.received == []
        assert sim.tracer.count(trc.DROP_LINK_DOWN) >= 1

    def test_down_drops_queued(self, sim, wire):
        a, b, link = wire
        for _ in range(3):
            a.ports[0].send(make_frame())
        link.take_down()
        sim.run()
        assert b.received == []

    def test_send_while_down_is_dropped(self, sim, wire):
        a, b, link = wire
        link.take_down()
        sim.run()
        a.ports[0].send(make_frame())
        sim.run()
        assert b.received == []

    def test_both_ends_notified(self, sim, wire):
        a, b, link = wire
        link.take_down()
        sim.run()
        assert a.carrier_events[-1][2] is False
        assert b.carrier_events[-1][2] is False

    def test_bring_up_notifies(self, sim, wire):
        a, b, link = wire
        link.take_down()
        sim.run()
        link.bring_up()
        sim.run()
        assert a.carrier_events[-1][2] is True

    def test_take_down_is_idempotent(self, sim, wire):
        a, _b, link = wire
        link.take_down()
        link.take_down()
        sim.run()
        downs = [e for e in a.carrier_events if e[2] is False]
        assert len(downs) == 1

    def test_traffic_resumes_after_up(self, sim, wire):
        a, b, link = wire
        link.take_down()
        sim.run()
        link.bring_up()
        sim.run()
        a.ports[0].send(make_frame())
        sim.run()
        assert len(b.received) == 1

    def test_port_is_up_tracks_carrier(self, sim, wire):
        a, _b, link = wire
        assert a.ports[0].is_up
        link.take_down()
        assert not a.ports[0].is_up


class TestFlapEdgeCases:
    """take_down()/bring_up() under in-flight traffic and repeated
    flaps: every loss is counted, and no stale delivery event fires
    after a flap cycle."""

    def test_in_flight_drop_counted_as_carrier_drop(self, sim, wire):
        a, b, link = wire
        a.ports[0].send(make_frame())
        sim.schedule(1e-4, link.take_down)  # mid-serialization
        sim.run()
        assert b.received == []
        assert link.carrier_drops == {"a.p0": 1, "b.p0": 0}

    def test_queued_drops_counted_as_carrier_drops(self, sim, wire):
        a, _b, link = wire
        for _ in range(3):  # 1 transmitting + 2 queued
            a.ports[0].send(make_frame())
        link.take_down()
        sim.run()
        assert link.carrier_drops == {"a.p0": 3, "b.p0": 0}
        assert link.queue_drops == {"a.p0": 0, "b.p0": 0}

    def test_transmit_while_down_counted(self, sim, wire):
        a, _b, link = wire
        link.take_down()
        sim.run()
        link.transmit(a.ports[0], make_frame())
        assert link.carrier_drops["a.p0"] == 1

    def test_no_stale_delivery_after_flap_cycle(self, sim, wire):
        """A frame in flight when carrier drops must NOT be delivered
        after carrier returns, even if its delivery time has not yet
        passed when the link comes back up."""
        a, b, link = wire
        frame = make_frame()
        a.ports[0].send(frame)  # delivery due at ~1.9ms
        sim.schedule(1e-4, link.take_down)
        sim.schedule(2e-4, link.bring_up)  # up again before delivery time
        sim.run()
        assert b.received == []
        direction = link._dirs[a.ports[0]]
        assert direction.pending == deque() and direction.queue == deque()
        assert not link.stats()["a.p0"]["busy"]
        assert direction.drain_event is None

    def test_traffic_after_flap_cycle_delivers_once(self, sim, wire):
        a, b, link = wire
        a.ports[0].send(make_frame())
        sim.schedule(1e-4, link.take_down)
        sim.schedule(2e-4, link.bring_up)
        sim.run()
        a.ports[0].send(make_frame())
        sim.run()
        assert len(b.received) == 1

    def test_repeated_flaps_accumulate_counters(self, sim, wire):
        a, b, link = wire
        for _ in range(3):
            a.ports[0].send(make_frame())
            link.take_down()
            sim.run()
            link.bring_up()
            sim.run()
        assert link.carrier_drops["a.p0"] == 3
        assert b.received == []
        a.ports[0].send(make_frame())
        sim.run()
        assert len(b.received) == 1

    def test_flap_cycle_resets_transmitter(self, sim, wire):
        """busy_until/drain_event state is cleared by take_down so the
        first frame after bring_up starts transmitting immediately."""
        a, b, link = wire
        for _ in range(3):
            a.ports[0].send(make_frame())
        link.take_down()
        link.bring_up()
        stats = link.stats()
        assert stats["a.p0"]["busy"] is False
        assert stats["a.p0"]["queued"] == 0
        a.ports[0].send(make_frame())
        sim.run()
        assert len(b.received) == 1

    def test_stats_include_carrier_drops(self, sim, wire):
        a, _b, link = wire
        a.ports[0].send(make_frame())
        link.take_down()
        sim.run()
        assert link.stats()["a.p0"]["carrier_drops"] == 1


class TestCongestedTransmitter:
    """Semantics of the free-running (busy_until) transmitter under
    load, pinned against the retired per-frame tx_done model: identical
    serialisation spacing, identical tail-drop depth, identical losses
    on a mid-burst carrier cut — at half the event count when
    uncongested."""

    def test_uncongested_send_costs_one_event(self, sim, wire):
        """No tx_done event on the uncongested path: one send = one
        delivery event, nothing else."""
        a, _b, _link = wire
        a.ports[0].send(make_frame())
        sim.run()
        assert sim.events_processed == 1

    def test_congested_burst_adds_only_drain_events(self, sim, wire):
        """A 3-frame burst: 3 deliveries + 2 drains (one per queued
        frame), not 3 tx_done + 3 deliveries."""
        a, b, _link = wire
        for _ in range(3):
            a.ports[0].send(make_frame())
        sim.run()
        assert len(b.received) == 3
        assert sim.events_processed == 5

    def test_back_to_back_serialize_at_exact_wire_spacing(self, sim, wire):
        """Queued frames start exactly when the previous serialisation
        ends: deliveries at ser+lat, 2*ser+lat, 3*ser+lat."""
        a, b, link = wire
        frame = make_frame(100)
        ser = frame.wire_size * 8 / 1e6
        for _ in range(3):
            a.ports[0].send(make_frame(100))
        sim.run()
        times = [t for t, _p, _f in b.received]
        assert times == pytest.approx(
            [ser + 1e-3, 2 * ser + 1e-3, 3 * ser + 1e-3])

    def test_tail_drop_depth_unchanged(self, sim, wire):
        """Capacity 2: 1 serialising + 2 queued survive a 6-frame
        burst; exactly 3 tail-drop (the pre-PR depth)."""
        a, b, link = wire
        for _ in range(6):
            a.ports[0].send(make_frame())
        assert link.queue_drops["a.p0"] == 3
        sim.run()
        assert len(b.received) == 3
        assert link.queue_drops == {"a.p0": 3, "b.p0": 0}

    def test_take_down_mid_burst_drops_same_frames(self, sim, wire):
        """4-frame burst, cut at t=2ms: frame 1 delivered (1.944ms),
        frames 2 and 3 lost to carrier (one serialising, one already
        drained into serialisation), frame 4 tail-dropped at send time
        — the exact pre-PR accounting."""
        a, b, link = wire
        for _ in range(4):
            a.ports[0].send(make_frame(100))
        sim.schedule(2e-3, link.take_down)
        sim.run()
        assert len(b.received) == 1
        assert link.queue_drops["a.p0"] == 1
        assert link.carrier_drops["a.p0"] == 2

    def test_take_down_mid_burst_with_queue_still_populated(self, sim, wire):
        """Cut during the first serialisation: the in-flight frame and
        both queued frames are carrier-dropped, queue and drain reset."""
        a, b, link = wire
        for _ in range(3):
            a.ports[0].send(make_frame(100))
        sim.schedule(5e-4, link.take_down)  # first tx ends at 944us
        sim.run()
        assert b.received == []
        assert link.carrier_drops["a.p0"] == 3
        direction = link._dirs[a.ports[0]]
        assert direction.drain_event is None
        assert len(direction.queue) == 0
        assert not link.stats()["a.p0"]["busy"]

    def test_infinite_bandwidth_never_queues_or_drops(self, sim):
        """bandwidth=None: serialisation is skipped, so the free-running
        transmitter is idle again the instant it starts — a same-instant
        burst beyond the queue capacity all delivers, with no tail-drop
        (the documented PR-5 semantic cleanup)."""
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = Link(sim, a.add_port(), b.add_port(), latency=2e-3,
                    bandwidth=None, queue_capacity=2)
        for _ in range(6):
            a.ports[0].send(make_frame())
        sim.run()
        assert len(b.received) == 6
        assert all(t == pytest.approx(2e-3) for t, _p, _f in b.received)
        assert link.queue_drops == {"a.p0": 0, "b.p0": 0}

    @pytest.mark.unchecked
    def test_enabling_record_retention_mid_run_takes_effect(self, sim, wire):
        """A recording listener attached mid-run sees the link fast
        path's next events (links share the tracer's listener list)."""
        a, b, _link = wire
        assert not sim.tracer._listeners
        a.ports[0].send(make_frame())
        sim.run()
        records = record_trace(sim)
        assert sim.tracer._listeners
        a.ports[0].send(make_frame())
        sim.run()
        assert [rec.kind for rec in records] == [trc.SENT, trc.DELIVERED]
        assert sim.tracer.frames_delivered == 2  # counters never paused

    def test_transmitter_idles_after_queue_drains(self, sim, wire):
        """Once the burst drains the transmitter free-runs again: a
        later send is uncongested (single event, immediate start)."""
        a, b, link = wire
        for _ in range(3):
            a.ports[0].send(make_frame(100))
        sim.run()
        fired = sim.events_processed
        frame = make_frame(100)
        ser = frame.wire_size * 8 / 1e6
        start = sim.now
        a.ports[0].send(frame)
        sim.run()
        assert sim.events_processed == fired + 1
        assert b.received[-1][0] == pytest.approx(start + ser + 1e-3)


class TestOneDeliveryInstant:
    """Every frame gets onto the wire through ``Link.transmit``'s one
    body (``_drain`` hands the queue's head there), so its delivery
    instant is one float expression, ``(start + ser) +
    latency`` — whether it started at once or out of the queue, and
    whether it is delivered here or exported across a shard cut. (The
    drained path used to stamp ``start + (ser + latency)``: 12 of this
    40-frame burst's deliveries came one ulp, 2.2e-16 s, late.)"""

    START = 1.2345
    LATENCY = 10e-6
    BANDWIDTH = 1e9

    def run_burst(self, count, export=False):
        """Send *count* mixed 64-1518 B frames at ``START``; returns
        when each started serialising, when each was delivered (with
        *export*: the instant handed to the hook) and the frames, all
        in sending order."""
        sim = Simulator(seed=0)
        records = record_trace(sim)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = Link(sim, a.add_port(), b.add_port(), latency=self.LATENCY,
                    bandwidth=self.BANDWIDTH, queue_capacity=64)
        exported_at = []
        if export:
            link._dirs[a.ports[0]].export = \
                lambda _start, deliver_at, _frame: exported_at.append(deliver_at)
        sizes = random.Random(7)
        frames = [make_frame(sizes.randint(46, 1500)) for _ in range(count)]
        sim.at(self.START,
               lambda: [a.ports[0].send(frame) for frame in frames])
        sim.run()
        started_at = [record.time for record in records
                      if record.kind == trc.SENT]
        if export:
            assert not b.received
            return started_at, exported_at, frames
        assert [frame for _t, _p, frame in b.received] == frames
        return started_at, [t for t, _p, _f in b.received], frames

    @pytest.mark.parametrize("count", [1, 40], ids=["unqueued", "queued"])
    def test_every_delivery_is_start_plus_ser_plus_latency(self, count):
        started_at, delivered_at, frames = self.run_burst(count)
        # The first frame starts at once, the rest out of the queue.
        assert started_at[0] == self.START
        assert started_at == sorted(set(started_at))
        assert delivered_at == [
            (start + frame.wire_size * (8.0 / self.BANDWIDTH)) + self.LATENCY
            for start, frame in zip(started_at, frames)]

    @pytest.mark.parametrize("count", [1, 40], ids=["unqueued", "queued"])
    def test_exported_instant_is_the_local_instant(self, count):
        started_at, exported_at, _frames = self.run_burst(count, export=True)
        assert len(exported_at) == count
        assert (started_at, exported_at) == self.run_burst(count)[:2]


_fifo_ops = st.lists(
    st.tuples(st.sampled_from(("send", "send", "send", "down", "up")),
              st.sampled_from((0, 1)),               # direction
              # When, after the previous op: the same instant, the
              # exact instant the transmitter goes idle, or a gap.
              st.sampled_from(("same", "busy_until", "gap")),
              st.floats(min_value=0.0, max_value=2e-4),
              # Payload sizes of one burst: 64..1518 B on the wire.
              st.lists(st.integers(46, 1500), min_size=1, max_size=6)),
    min_size=1, max_size=30)


class TestInFlightFifo:
    """``_Direction.pending`` is exactly the deliveries in flight, in
    firing order — the invariant ``Link._deliver``'s head pop and
    ``take_down``'s unconditional cancel rely on (link module
    docstring) — and each direction's own tallies conserve frames:
    :mod:`repro.check` audits both after every engine step. Unless
    *listening*, the same ops also replay with no listener at all, and
    that run must end exactly where the checked one did."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=_fifo_ops,
           bandwidth=st.sampled_from((None, 1e8, 1e9)),
           queue_capacity=st.sampled_from((0, 2, 64)),
           latency=st.sampled_from((0.0, 1e-6, 5e-5)),
           listening=st.booleans())
    def test_pending_is_the_in_flight_fifo(self, invariant_checks, ops,
                                           bandwidth, queue_capacity,
                                           latency, listening):
        invariant_checks.on = False     # one checker: the checked run's

        def replay(checked):
            sim = Simulator(seed=1)
            checker = check.attach(sim) if checked else None
            assert bool(sim.tracer._listeners) is checked
            nodes = Sink(sim, "a"), Sink(sim, "b")
            link = Link(sim, nodes[0].add_port(), nodes[1].add_port(),
                        latency=latency, bandwidth=bandwidth,
                        queue_capacity=queue_capacity)
            ports = link.port_a, link.port_b
            directions = [link._dirs[port] for port in ports]

            def audit():
                if checker is not None:
                    checker.audit()
                assert [sum(registers.delivered for registers
                            in direction.tallies.values())
                        for direction in directions] == [
                            len(node.received) for node in reversed(nodes)]

            def step_until(instant):
                while sim.pending_events and sim.next_event_time() <= instant:
                    sim.run(until=instant, max_events=1)
                    audit()
                sim.run(until=instant)

            for kind, index, when, gap, sizes in ops:
                if when == "busy_until":
                    step_until(max(sim.now, directions[index].busy_until))
                elif when == "gap":
                    step_until(sim.now + gap)
                if kind == "send":
                    for size in sizes:
                        # Not Port.send: it swallows sends on a dead link.
                        link.transmit(ports[index], EthernetFrame(
                            dst=H1, src=H0, ethertype=ETHERTYPE_IPV4,
                            payload=b"x" * size))
                elif kind == "down":
                    link.take_down()
                else:
                    link.bring_up()
                audit()

            while sim.pending_events:
                sim.run(max_events=1)
                audit()
            if checker is not None:
                checker.close()
            assert all(not direction.pending and not direction.queue
                       for direction in directions)
            assert sim.tracer.counts[trc.SENT] == sum(
                registers.sent for direction in directions
                for registers in direction.tallies.values())
            return sim.events_processed, link.stats(), [
                [(t, port.name, frame.wire_size)
                 for t, port, frame in node.received] for node in nodes]

        checked = replay(True)
        if not listening:
            assert replay(False) == checked


class TestNode:
    def test_free_port_reuses_unattached(self, sim):
        node = Sink(sim, "n")
        port = node.add_port()
        assert node.free_port() is port

    def test_free_port_creates_when_all_attached(self, sim, wire):
        a, _b, _link = wire
        new = a.free_port()
        assert new is not a.ports[0]

    def test_flood_excludes_port(self, sim):
        hub = Sink(sim, "hub")
        spokes = [Sink(sim, f"s{i}") for i in range(3)]
        for spoke in spokes:
            Link(sim, hub.add_port(), spoke.add_port(), latency=1e-6)
        sent = hub.flood(make_frame(), exclude=hub.ports[0])
        sim.run()
        assert sent == 2
        assert len(spokes[0].received) == 0
        assert len(spokes[1].received) == 1

    def test_flood_counts_a_down_port_but_transmits_nothing_on_it(self, sim):
        # Bridge.flood_data is Node.flood plus the two flood counters.
        hub = Bridge(sim, "hub", H0)
        spokes = [Sink(sim, f"s{i}") for i in range(3)]
        links = [Link(sim, hub.add_port(), spoke.add_port(), latency=1e-6)
                 for spoke in spokes]
        links[1].take_down()
        frame = make_frame()
        sent = hub.flood_data(frame, exclude=hub.ports[0])
        sim.run()
        # Like Port.send on a NIC without carrier: counted, discarded
        # before the link, so neither SENT nor a carrier drop.
        assert sent == 2
        assert (hub.counters.flooded_frames, hub.counters.flooded_copies) \
            == (1, 2)
        assert [len(spoke.received) for spoke in spokes] == [0, 0, 1]
        assert spokes[2].received[0][2] is frame
        assert sim.tracer.count(trc.SENT) == 1
        assert sim.tracer.count(trc.DROP_LINK_DOWN) == 0
        assert sum(links[1].carrier_drops.values()) == 0

    def test_send_unattached_is_noop(self, sim):
        lonely = Sink(sim, "l")
        lonely.add_port().send(make_frame())
        sim.run()  # nothing scheduled, nothing crashes

