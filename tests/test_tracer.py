"""Tests for frame-level counting and observation."""

import pytest

from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_IPV4,
                                   EthernetFrame)
from repro.frames.mac import BROADCAST, MAC
from repro.metrics.load import fabric_load
from repro.netsim.engine import Simulator
from repro.netsim.errors import RecordRetentionError
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.tracer import (DELIVERED, DROP_LINK_DOWN, DROP_QUEUE,
                                 KINDS, SENT, TALLIES, TraceRecord, Tracer)
from repro.testing import record_trace
from repro.topology import line
from repro.topology.factories import arppath
from repro.traffic.matrix import TrafficMatrix


def wire(sim, name="a", queue_capacity=1):
    """Two nodes joined by a 1 Mb/s link; both swallow what they get."""
    a, b = Node(sim, f"{name}0"), Node(sim, f"{name}1")
    a.handle_frame = b.handle_frame = lambda port, frame: None
    return Link(sim, a.add_port(), b.add_port(), bandwidth=1e6,
                queue_capacity=queue_capacity, name=name)


def send(sim, link, ethertype=ETHERTYPE_IPV4, count=1, payload=b"x",
         dst=MAC(2)):
    for _ in range(count):
        link.transmit(link.port_a, EthernetFrame(
            dst=dst, src=MAC(1), ethertype=ethertype, payload=payload))
    sim.run()


@pytest.fixture
def sim():
    return Simulator(seed=1)


class TestCounters:
    def test_counts_by_kind(self, sim):
        send(sim, wire(sim, queue_capacity=8), count=2)
        assert sim.tracer.frames_sent == 2
        assert sim.tracer.frames_delivered == 2

    def test_counts_by_ethertype(self, sim):
        link = wire(sim)
        send(sim, link, ethertype=ETHERTYPE_ARP)
        send(sim, link, ethertype=ETHERTYPE_IPV4)
        assert sim.tracer.count(SENT, ETHERTYPE_ARP) == 1
        assert sim.tracer.count(SENT) == 2

    def test_dropped_aggregates(self, sim):
        link = wire(sim, queue_capacity=0)
        send(sim, link, count=2)             # one on the wire, one dropped
        link.take_down()
        send(sim, link)
        assert sim.tracer.frames_dropped == 2
        assert sim.tracer.counts == {SENT: 1, DELIVERED: 1, DROP_QUEUE: 1,
                                     DROP_LINK_DOWN: 1}

    def test_reset(self, sim):
        send(sim, wire(sim))
        sim.tracer.reset()
        assert sim.tracer.frames_sent == 0
        assert sim.tracer.by_ethertype == {kind: {} for kind in KINDS}


class TestDerivedTotals:
    """A tracer stores no count: every total is a sum over the
    registered link directions' tallies, taken when read."""

    @staticmethod
    def burst(sim, link, ethertype):
        """Four frames at one instant on a 1-deep queue: 2 sent and
        delivered, 2 tail-dropped."""
        send(sim, link, ethertype=ethertype, count=4)

    @staticmethod
    def assert_totals_are_sums(sim, links):
        tracer = sim.tracer
        directions = [direction for link in links
                      for direction in link._dirs.values()]
        for kind in KINDS:
            per_ethertype = tracer.by_ethertype[kind]
            total = sum(getattr(registers, kind) for direction in directions
                        for registers in direction.tallies.values())
            assert tracer.counts[kind] == tracer.count(kind) == total \
                == sum(per_ethertype.values())
            for ethertype, count in per_ethertype.items():
                assert tracer.count(kind, ethertype) == count
        assert tracer.frames_sent == tracer.count(SENT)
        assert tracer.frames_delivered == tracer.count(DELIVERED)
        assert tracer.frames_dropped == (tracer.count(DROP_QUEUE)
                                         + tracer.count(DROP_LINK_DOWN))

    @pytest.mark.unchecked
    def test_totals_are_sums_across_every_tracing_level(self, sim):
        links = wire(sim, "x"), wire(sim, "y")
        tracer = sim.tracer
        assert not tracer._listeners
        self.burst(sim, links[0], ETHERTYPE_IPV4)       # count-only
        self.assert_totals_are_sums(sim, links)
        seen = record_trace(sim)
        assert tracer._listeners
        self.burst(sim, links[1], ETHERTYPE_ARP)        # listener
        links[0].take_down()
        links[0].transmit(links[0].port_a, EthernetFrame(
            dst=MAC(2), src=MAC(1), ethertype=ETHERTYPE_ARP, payload=b"x"))
        self.assert_totals_are_sums(sim, links)
        assert dict(tracer.counts) == {SENT: 4, DELIVERED: 4,
                                       DROP_QUEUE: 4, DROP_LINK_DOWN: 1}
        assert tracer.by_ethertype[SENT] == {ETHERTYPE_IPV4: 2,
                                             ETHERTYPE_ARP: 2}
        assert len(seen) == 7
        tracer.remove_listener(seen.append)
        assert not tracer._listeners

    def test_reset_mid_run_keeps_links_counting(self, sim):
        """``reset`` zeroes every direction's register records in place
        (``loadbalance`` / ``loopfree`` / ``scale`` reset after
        warm-up), and links go on bumping the same records."""
        link = wire(sim)
        direction = link._dirs[link.port_a]
        self.burst(sim, link, ETHERTYPE_IPV4)
        records = dict(direction.tallies)
        assert list(records) == [ETHERTYPE_IPV4]
        sim.tracer.reset()
        assert dict(sim.tracer.counts) == {} and sim.tracer.frames_sent == 0
        assert all(not getattr(registers, name)
                   for registers in records.values() for name in TALLIES)
        self.burst(sim, link, ETHERTYPE_ARP)
        self.burst(sim, link, ETHERTYPE_IPV4)
        assert direction.tallies[ETHERTYPE_IPV4] is records[ETHERTYPE_IPV4]
        assert dict(sim.tracer.counts) == {SENT: 4, DELIVERED: 4,
                                           DROP_QUEUE: 4}
        assert sim.tracer.by_ethertype[SENT] == {ETHERTYPE_ARP: 2,
                                                 ETHERTYPE_IPV4: 2}

    def test_reset_with_frames_in_flight_counts_their_deliveries(self, sim):
        """Frames on the wire or queued at a reset are counted as they
        are delivered (and sent, out of the queue) after it: one on the
        wire, two queued, so 2 sent and 3 delivered since the reset."""
        link = wire(sim, queue_capacity=8)
        for _ in range(3):
            link.transmit(link.port_a, EthernetFrame(
                dst=MAC(2), src=MAC(1), ethertype=ETHERTYPE_IPV4,
                payload=b"x"))
        assert sim.tracer.counts == {SENT: 1}
        sim.tracer.reset()
        sim.run()
        assert dict(sim.tracer.counts) == {SENT: 2, DELIVERED: 3}
        assert sim.tracer.by_ethertype[DELIVERED] == {ETHERTYPE_IPV4: 3}
        stats = link.stats()[link.port_a.name]
        assert (stats["sent"], stats["delivered"]) == (2, 3)
        assert stats["sent_bytes"] == link.bytes_sent(ETHERTYPE_IPV4) \
            == 2 * 64

    def test_a_kind_never_seen_is_absent_beside_its_record(self, sim):
        """A send makes its ethertype's record with every register at
        0; the kinds that never happened stay out of every view."""
        link = wire(sim, "x")
        send(sim, link)
        direction = link._dirs[link.port_a]
        assert direction.tallies[ETHERTYPE_IPV4].drop_queue == 0
        tracer = sim.tracer
        assert tracer.by_ethertype == {SENT: {ETHERTYPE_IPV4: 1},
                                       DELIVERED: {ETHERTYPE_IPV4: 1},
                                       DROP_QUEUE: {}, DROP_LINK_DOWN: {}}
        assert tracer.tally("sent_bytes") == {ETHERTYPE_IPV4: 64}
        assert link.bytes_sent(ETHERTYPE_ARP) == 0
        assert link.stats()[link.port_b.name]["sent"] == 0

    def test_never_seen_kind_reads_zero_and_is_absent(self, sim):
        send(sim, wire(sim))
        tracer = sim.tracer
        assert tracer.counts[DROP_LINK_DOWN] == 0 == tracer.count(
            DROP_LINK_DOWN)
        assert tracer.count(SENT, 0x88CC) == 0
        assert dict(tracer.counts) == {SENT: 1, DELIVERED: 1}
        assert 0x88CC not in tracer.by_ethertype[SENT]   # reads add no key

    def test_counts_is_a_snapshot_not_a_handle(self, sim):
        """Writing through ``tracer.counts`` is not a supported
        mutation: totals are derived, the Counter is a fresh copy."""
        send(sim, wire(sim))
        sim.tracer.counts[SENT] += 5
        sim.tracer.by_ethertype[SENT][ETHERTYPE_IPV4] = 99
        assert sim.tracer.counts[SENT] == sim.tracer.frames_sent == 1


class TestPortTallies:
    """Per-direction conservation (``docs/ARCHITECTURE.md`` §11): each
    direction's ``sent`` equals its ``delivered`` plus the carrier drops
    of frames that were in flight plus what is still in flight;
    ``tests/test_link.py::TestInFlightFifo`` checks it after every
    engine step. These pin what the totals are made of."""

    def test_directions_count_apart(self, sim):
        link = wire(sim, queue_capacity=8)
        send(sim, link, count=3)
        link.transmit(link.port_b, EthernetFrame(
            dst=MAC(1), src=MAC(2), ethertype=ETHERTYPE_IPV4, payload=b"x"))
        sim.run()
        stats = link.stats()
        assert (stats["a0.p0"]["sent"], stats["a0.p0"]["delivered"]) == (3, 3)
        assert (stats["a1.p0"]["sent"], stats["a1.p0"]["delivered"]) == (1, 1)
        assert stats["a0.p0"]["sent_bytes"] == 3 * stats["a1.p0"]["sent_bytes"]

    def test_detach_and_migrate_never_shrink_the_totals(self):
        """A link leaving its network stays registered with the tracer:
        its frames stay in the totals, and ``reset`` zeroes it too."""
        sim = Simulator(seed=1)
        net = line(sim, arppath(), 3)
        net.run(2.0)
        matrix = TrafficMatrix(net)
        matrix.add_flow("H0", "H1", packets=20, interval=1e-3)
        matrix.start()
        net.run(0.5)
        tracer = sim.tracer
        gone = [net.host("H1").port.link, net.host("H0").port.link]
        readings = [tracer.frames_sent]
        net.migrate_host("H1", "B1")
        readings.append(tracer.frames_sent)
        net.detach("H0")
        readings.append(tracer.frames_sent)
        net.run(0.5)                     # the migrated host's announcement
        readings.append(tracer.frames_sent)
        assert readings[0] > 0 and readings == sorted(readings)
        assert readings[-1] > readings[0]

        def sent(link):
            return sum(side["sent"] for side in link.stats().values())

        assert all(link not in net.links.values() and sent(link) > 0
                   for link in gone)
        assert tracer.frames_sent == sum(
            sent(link) for link in [*net.links.values(), *gone])
        tracer.reset()
        assert tracer.frames_sent == 0
        assert all(not getattr(registers, name)
                   for link in gone for direction in link._dirs.values()
                   for registers in direction.tallies.values()
                   for name in TALLIES)

    def test_retention_is_refused_with_a_pointer_to_listeners(self):
        Simulator(keep_trace_records=False)             # old callers
        with pytest.raises(RecordRetentionError, match="record_trace"):
            Simulator(keep_trace_records=True)


class TestRecords:
    def test_records_kept_by_default(self, sim):
        """``record_trace`` keeps every record the tracer builds."""
        records = record_trace(sim)
        send(sim, wire(sim))
        assert [rec.kind for rec in records] == [SENT, DELIVERED]
        assert all(isinstance(rec, TraceRecord) for rec in records)

    @pytest.mark.unchecked
    def test_records_disabled(self, sim):
        """No listener, no record: the tracer has nowhere to keep one."""
        send(sim, wire(sim))
        assert not hasattr(sim.tracer, "records")
        assert not sim.tracer._listeners
        assert sim.tracer.frames_sent == 1  # counters still work

    def test_sent_bytes_are_tallied_per_direction(self, sim):
        link = wire(sim, queue_capacity=8)
        records = record_trace(sim)
        send(sim, link, ethertype=ETHERTYPE_IPV4, payload=b"x" * 100)
        send(sim, link, ethertype=ETHERTYPE_ARP, payload=b"x" * 10)
        sizes = [rec.size for rec in records if rec.kind == SENT]
        assert link.bytes_sent() == sum(sizes)
        assert link.bytes_sent(ETHERTYPE_IPV4) == sizes[0]
        assert link.bytes_sent(0x88CC) == 0
        assert sim.tracer.tally("sent_bytes") == {ETHERTYPE_IPV4: sizes[0],
                                                  ETHERTYPE_ARP: sizes[1]}

    def test_fabric_load_matches_a_recorded_reference_sum(self):
        sim = Simulator(seed=3)
        net = line(sim, arppath(), 4)
        net.run(2.0)
        sim.tracer.reset()
        records = record_trace(sim)
        matrix = TrafficMatrix(net)
        matrix.all_pairs(packets=5, interval=1e-3, size=300)
        matrix.start()
        net.run(1.0)
        for ethertype in (None, ETHERTYPE_IPV4, ETHERTYPE_ARP, 0x88CC):
            reference = {link.name: 0 for link in net.fabric_links()}
            for rec in records:
                if (rec.kind == SENT and rec.link in reference
                        and ethertype in (None, rec.ethertype)):
                    reference[rec.link] += rec.size
            assert fabric_load(net, ethertype).per_link == reference
        assert fabric_load(net, ETHERTYPE_IPV4).total_bytes > 0

    def test_listener_invoked(self, sim):
        link = wire(sim)
        seen = []
        sim.tracer.add_listener(seen.append)
        send(sim, link)
        assert [rec.kind for rec in seen] == [SENT, DELIVERED]
        sim.tracer.remove_listener(seen.append)
        send(sim, link)
        assert len(seen) == 2 and sim.tracer.frames_sent == 2


class SpyMAC(MAC):
    """A MAC that counts how often it is rendered."""

    __slots__ = ()
    rendered = 0

    def __str__(self):
        SpyMAC.rendered += 1
        return super().__str__()


class TestTraceRecordContract:
    SRC, DST = MAC("02:00:00:00:00:01"), MAC("02:00:00:00:00:02")

    @pytest.fixture
    def recorded(self):
        tracer = Tracer()
        records = []
        tracer.add_listener(records.append)
        return tracer, records

    def record(self, tracer, src=None, dst=None):
        tracer.record(SENT, 1.5, "l0", 7, 0x0800, 64,
                      self.SRC if src is None else src,
                      self.DST if dst is None else dst, None)

    def test_src_dst_are_rendered_strings(self, recorded):
        tracer, records = recorded
        self.record(tracer)
        record = records[0]
        assert type(record.src) is str and type(record.dst) is str
        assert record.src == str(self.SRC) == "02:00:00:00:00:01"
        assert record.dst == str(self.DST)
        assert (record.kind, record.time, record.link, record.frame_uid,
                record.ethertype, record.size) == (SENT, 1.5, "l0", 7,
                                                   0x0800, 64)

    def test_same_event_compares_and_hashes_equal(self, recorded):
        tracer, records = recorded
        self.record(tracer)
        self.record(tracer, src=MAC(self.SRC), dst=MAC(self.DST))
        self.record(tracer, src=str(self.SRC), dst=str(self.DST))
        first, again, from_strings = records
        assert first == again == from_strings
        assert not first != from_strings
        assert hash(first) == hash(again) == hash(from_strings)
        assert len({first, again, from_strings}) == 1
        assert first == TraceRecord(
            kind=SENT, time=1.5, link="l0", frame_uid=7, ethertype=0x0800,
            size=64, src="02:00:00:00:00:01", dst="02:00:00:00:00:02",
            direction=None)
        self.record(tracer, dst=BROADCAST)
        assert records[-1] != first

    def test_records_are_immutable(self, recorded):
        tracer, records = recorded
        self.record(tracer)
        with pytest.raises(AttributeError):
            records[0].size = 1
        with pytest.raises(AttributeError):
            records[0].src = "x"

    def test_is_broadcast(self, recorded):
        tracer, records = recorded
        self.record(tracer)
        self.record(tracer, dst=BROADCAST)
        self.record(tracer, dst="ff:ff:ff:ff:ff:ff")
        assert [r.is_broadcast for r in records] == [False, True,
                                                            True]

    def test_listener_sees_the_retained_values(self, recorded):
        tracer, records = recorded
        """Every listener gets the same record object."""
        seen = []
        tracer.add_listener(seen.append)
        self.record(tracer)
        assert seen == records and seen[0] is records[0]
        assert seen[0].src == str(self.SRC)

    def test_no_mac_is_rendered_until_a_field_is_read(self, recorded):
        tracer, records = recorded
        SpyMAC.rendered = 0
        for index in range(50):
            tracer.record(DELIVERED, 0.1 * index, "l0", index, 0x0806, 64,
                          SpyMAC(index + 1), SpyMAC(BROADCAST), None)
        assert len(records) == 50
        # A listener's skip tests read everything but the addresses.
        assert [rec.frame_uid for rec in records
                if rec.kind == DELIVERED and rec.link == "l0"
                and rec.is_broadcast] == list(range(50))
        assert SpyMAC.rendered == 0
        assert records[4].src == "00:00:00:00:00:05"
        assert SpyMAC.rendered == 1
