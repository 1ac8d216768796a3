"""Tests for frame-level tracing."""

import pytest

from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_IPV4,
                                   EthernetFrame)
from repro.frames.mac import BROADCAST, MAC
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.tracer import (DELIVERED, DROP_LINK_DOWN, DROP_QUEUE,
                                 DROP_TTL, KINDS, SENT, TraceRecord, Tracer)


def rec(tracer, kind, link="l0", uid=1, ethertype=0x0800, size=64):
    tracer.record(kind, 0.0, link, uid, ethertype, size, "a", "b")


class TestCounters:
    def test_counts_by_kind(self):
        tracer = Tracer()
        rec(tracer, SENT)
        rec(tracer, SENT)
        rec(tracer, DELIVERED)
        assert tracer.frames_sent == 2
        assert tracer.frames_delivered == 1

    def test_counts_by_ethertype(self):
        tracer = Tracer()
        rec(tracer, SENT, ethertype=0x0806)
        rec(tracer, SENT, ethertype=0x0800)
        assert tracer.count(SENT, 0x0806) == 1
        assert tracer.count(SENT) == 2

    def test_dropped_aggregates(self):
        tracer = Tracer()
        rec(tracer, DROP_QUEUE)
        assert tracer.frames_dropped == 1

    def test_reset(self):
        tracer = Tracer()
        rec(tracer, SENT)
        tracer.reset()
        assert tracer.frames_sent == 0
        assert tracer.records == []


class TestDerivedTotals:
    """``by_ethertype`` is the one stored tally; every total is a sum
    over it, taken when read."""

    @pytest.fixture
    def wired(self):
        sim = Simulator(seed=1, keep_trace_records=False)
        a, b = Node(sim, "a"), Node(sim, "b")
        b.handle_frame = lambda port, frame: None
        link = Link(sim, a.add_port(), b.add_port(), bandwidth=1e6,
                    queue_capacity=1)
        return sim, link

    @staticmethod
    def burst(sim, link, ethertype):
        """Four frames at one instant on a 1-deep queue: 2 sent and
        delivered, 2 tail-dropped."""
        for _ in range(4):
            link.transmit(link.port_a, EthernetFrame(
                dst=MAC(2), src=MAC(1), ethertype=ethertype, payload=b"x"))
        sim.run()

    @staticmethod
    def assert_totals_are_sums(tracer):
        for kind in KINDS:
            total = sum(tracer.by_ethertype[kind].values())
            assert tracer.counts[kind] == tracer.count(kind) == total
        assert tracer.frames_sent == tracer.count(SENT)
        assert tracer.frames_delivered == tracer.count(DELIVERED)
        assert tracer.frames_dropped == sum(
            tracer.count(kind)
            for kind in (DROP_QUEUE, DROP_LINK_DOWN, DROP_TTL))

    def test_totals_are_sums_across_every_tracing_level(self, wired):
        sim, link = wired
        tracer = sim.tracer
        assert tracer.count_only
        self.burst(sim, link, ETHERTYPE_IPV4)           # count-only
        self.assert_totals_are_sums(tracer)
        tracer.keep_records = True
        self.burst(sim, link, ETHERTYPE_ARP)            # retained
        self.assert_totals_are_sums(tracer)
        tracer.keep_records = False
        seen = []
        tracer.add_listener(seen.append)
        self.burst(sim, link, ETHERTYPE_IPV4)           # listener only
        link.take_down()
        link.transmit(link.port_a, EthernetFrame(
            dst=MAC(2), src=MAC(1), ethertype=ETHERTYPE_ARP, payload=b"x"))
        self.assert_totals_are_sums(tracer)
        assert dict(tracer.counts) == {SENT: 6, DELIVERED: 6,
                                       DROP_QUEUE: 6, DROP_LINK_DOWN: 1}
        # First-seen order, which scale rows carry.
        assert list(tracer.by_ethertype[SENT].items()) == [
            (ETHERTYPE_IPV4, 4), (ETHERTYPE_ARP, 2)]
        assert len(tracer.records) == 6 and len(seen) == 7

    def test_reset_mid_run_keeps_links_counting(self, wired):
        """Links cache the dicts they bump; ``reset`` empties them in
        place (``loadbalance`` / ``loopfree`` reset after warm-up)."""
        sim, link = wired
        tracer = sim.tracer
        tallies = {kind: tracer.by_ethertype[kind] for kind in KINDS}
        self.burst(sim, link, ETHERTYPE_IPV4)
        tracer.reset()
        assert dict(tracer.counts) == {} and tracer.frames_sent == 0
        self.burst(sim, link, ETHERTYPE_ARP)
        assert all(tracer.by_ethertype[kind] is tally
                   for kind, tally in tallies.items())
        assert dict(tracer.counts) == {SENT: 2, DELIVERED: 2, DROP_QUEUE: 2}
        assert tracer.by_ethertype[SENT] == {ETHERTYPE_ARP: 2}

    def test_never_seen_kind_reads_zero_and_is_absent(self):
        tracer = Tracer()
        rec(tracer, SENT)
        assert tracer.counts[DROP_TTL] == 0 == tracer.count(DROP_TTL)
        assert tracer.count(SENT, 0x88CC) == 0
        assert dict(tracer.counts) == {SENT: 1}
        assert 0x88CC not in tracer.by_ethertype[SENT]  # reads add no key

    def test_counts_is_a_snapshot_not_a_handle(self):
        """Writing through ``tracer.counts`` is not a supported
        mutation: totals are derived, the Counter is a fresh copy."""
        tracer = Tracer()
        rec(tracer, SENT)
        tracer.counts[SENT] += 5
        assert tracer.counts[SENT] == tracer.frames_sent == 1


class TestRecords:
    def test_records_kept_by_default(self):
        tracer = Tracer()
        rec(tracer, SENT)
        assert len(tracer.records) == 1
        assert isinstance(tracer.records[0], TraceRecord)

    def test_records_disabled(self):
        tracer = Tracer(keep_records=False)
        rec(tracer, SENT)
        assert tracer.records == []
        assert tracer.frames_sent == 1  # counters still work

    def test_deliveries_for(self):
        tracer = Tracer()
        rec(tracer, DELIVERED, uid=7)
        rec(tracer, DELIVERED, uid=8)
        rec(tracer, SENT, uid=7)
        assert len(tracer.deliveries_for(7)) == 1

    def test_link_load_bytes(self):
        tracer = Tracer()
        rec(tracer, SENT, link="x", size=100)
        rec(tracer, SENT, link="x", size=50)
        rec(tracer, SENT, link="y", size=10)
        rec(tracer, DELIVERED, link="x", size=100)  # not counted
        assert tracer.link_load_bytes() == {"x": 150, "y": 10}

    def test_link_load_bytes_by_ethertype_matches_reference_sum(self):
        tracer = Tracer()
        events = [(SENT, "x", 0x0800, 100), (SENT, "x", 0x0806, 64),
                  (SENT, "y", 0x0800, 10), (DELIVERED, "x", 0x0800, 100),
                  (SENT, "y", 0x0806, 64), (SENT, "x", 0x0800, 50),
                  (DROP_QUEUE, "z", 0x0800, 70)]
        for kind, link, ethertype, size in events:
            rec(tracer, kind, link=link, ethertype=ethertype, size=size)
        for ethertype in (None, 0x0800, 0x0806, 0x88CC):
            reference = {}
            for record in tracer.records:
                if record.kind == SENT and ethertype in (None,
                                                         record.ethertype):
                    reference[record.link] = (reference.get(record.link, 0)
                                              + record.size)
            assert tracer.link_load_bytes(ethertype=ethertype) == reference
        assert tracer.link_load_bytes(ethertype=0x0800) == {"x": 150,
                                                            "y": 10}
        assert tracer.link_load_bytes(ethertype=0x88CC) == {}

    def test_listener_invoked(self):
        tracer = Tracer(keep_records=False)
        seen = []
        tracer.add_listener(seen.append)
        rec(tracer, SENT)
        assert len(seen) == 1
        assert seen[0].kind == SENT


class SpyMAC(MAC):
    """A MAC that counts how often it is rendered."""

    __slots__ = ()
    rendered = 0

    def __str__(self):
        SpyMAC.rendered += 1
        return super().__str__()


class TestTraceRecordContract:
    SRC, DST = MAC("02:00:00:00:00:01"), MAC("02:00:00:00:00:02")

    def record(self, tracer, src=None, dst=None):
        tracer.record(SENT, 1.5, "l0", 7, 0x0800, 64,
                      self.SRC if src is None else src,
                      self.DST if dst is None else dst)

    def test_src_dst_are_rendered_strings(self):
        tracer = Tracer()
        self.record(tracer)
        record = tracer.records[0]
        assert type(record.src) is str and type(record.dst) is str
        assert record.src == str(self.SRC) == "02:00:00:00:00:01"
        assert record.dst == str(self.DST)
        assert (record.kind, record.time, record.link, record.frame_uid,
                record.ethertype, record.size) == (SENT, 1.5, "l0", 7,
                                                   0x0800, 64)

    def test_same_event_compares_and_hashes_equal(self):
        tracer = Tracer()
        self.record(tracer)
        self.record(tracer, src=MAC(self.SRC), dst=MAC(self.DST))
        self.record(tracer, src=str(self.SRC), dst=str(self.DST))
        first, again, from_strings = tracer.records
        assert first == again == from_strings
        assert not first != from_strings
        assert hash(first) == hash(again) == hash(from_strings)
        assert len({first, again, from_strings}) == 1
        assert first == TraceRecord(
            kind=SENT, time=1.5, link="l0", frame_uid=7, ethertype=0x0800,
            size=64, src="02:00:00:00:00:01", dst="02:00:00:00:00:02")
        self.record(tracer, dst=BROADCAST)
        assert tracer.records[-1] != first

    def test_records_are_immutable(self):
        tracer = Tracer()
        self.record(tracer)
        with pytest.raises(AttributeError):
            tracer.records[0].size = 1
        with pytest.raises(AttributeError):
            tracer.records[0].src = "x"

    def test_is_broadcast(self):
        tracer = Tracer()
        self.record(tracer)
        self.record(tracer, dst=BROADCAST)
        self.record(tracer, dst="ff:ff:ff:ff:ff:ff")
        assert [r.is_broadcast for r in tracer.records] == [False, True,
                                                            True]

    def test_listener_sees_the_retained_values(self):
        retained, listening = Tracer(), Tracer(keep_records=False)
        seen = []
        listening.add_listener(seen.append)
        for tracer in (retained, listening):
            self.record(tracer)
        assert listening.records == []
        assert seen == retained.records
        assert seen[0].src == retained.records[0].src == str(self.SRC)

    def test_no_mac_is_rendered_until_a_field_is_read(self):
        tracer = Tracer()
        seen = []
        tracer.add_listener(seen.append)
        SpyMAC.rendered = 0
        for index in range(50):
            tracer.record(DELIVERED, 0.1 * index, "l0", index, 0x0806, 64,
                          SpyMAC(index + 1), SpyMAC(BROADCAST))
        assert len(tracer.records) == len(seen) == 50
        # The consumers' skip tests read everything but the addresses.
        assert tracer.link_load_bytes() == {}
        assert len(tracer.deliveries_for(3)) == 1
        assert all(r.is_broadcast for r in tracer.records)
        assert SpyMAC.rendered == 0
        assert tracer.records[4].src == "00:00:00:00:00:05"
        assert SpyMAC.rendered == 1
