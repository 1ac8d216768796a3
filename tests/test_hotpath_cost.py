"""Deterministic cost guards for the hot paths.

The invariant is *one table probe per address per hop* (ARCHITECTURE
§"slim hot path"): ``on_unicast`` learns the source with one probe,
looks the destination up with one probe and confirms the entry it got.
A wall-clock assertion would flake; the number of Python-level ``call``
events per link delivery is a count — it repeats exactly and moves the
day someone re-adds a probe or a wrapper frame.

The second guard is on what a hop *retains*: a link direction holds
exactly the deliveries in flight (``netsim.link`` docstring), so a
delivered frame and its event die by reference count. Retention does
not show in a call count or in cProfile — it shows as objects surviving
into the collector's older generations — so it is counted directly.

The third guard is on reclamation: an aging store arms one engine timer
per quarter-second deadline bucket, never one per entry
(``netsim.aging`` docstring), so a burst of table writes costs the
engine a handful of events and no retained ``Event`` per row; and a
LOCKED row holds one object and one deadline float, filed on itself.

The fourth guard is on the baseline family: an 802.1D bridge recomputes
on change, not on receipt (``stp.bridge`` docstring), so the hellos of a
converged tree run no ``_recompute`` at all and a cut runs a bounded few.

The last three guard the end host and SPB's attachment lookup, which
compare addresses as integers (ARCHITECTURE §7 "Hosts compare
integers", §9): a received broadcast ARP and a UDP packet cost a fixed
handful of calls, and finding a host's bridge costs no ``MAC.__eq__``
however many hosts the LSDB advertises.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.core.table import LockedAddressTable
from repro.frames.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4
from repro.frames.mac import MAC
from repro.hosts.host import Host
from repro.netsim.aging import RECLAIM_GRANULE
from repro.netsim.engine import Event, Simulator
from repro.netsim.tracer import DELIVERED
from repro.stp import PortState
from repro.topology import grid, line, ring
from repro.topology.factories import arppath, spb, stp_scaled
from repro.traffic.matrix import TrafficMatrix

#: Python calls per link delivery on the warm 8-bridge line. The parent
#: of the one-probe change measured 28.7; the change itself 13.6.
MAX_CALLS_PER_DELIVERY = 16


def _python_calls(run, *args) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
    return calls


#: Net growth of the collector's gen-0 allocation counter over the
#: ~1 800 deliveries of the measured window, i.e. container objects the
#: window left alive. The parent of the in-flight FIFO change measured
#: 39 (fired events, their args tuples and frames pinned by
#: ``pending``); the change itself 7.
MAX_GEN0_GROWTH = 10


def _warm_train():
    sim = Simulator(seed=1, keep_trace_records=False)
    net = line(sim, arppath(), 8)
    net.run(5.0)                         # hellos classify the ports

    matrix = TrafficMatrix(net)
    flow = matrix.add_flow("H0", "H1", packets=10_000, interval=1e-4)
    matrix.start()
    net.run(0.005)                       # ARP race + ~50 packets: path LEARNT
    assert flow.received > 40
    return sim, net, flow


def test_unicast_hop_costs_at_most_16_python_calls_per_delivery():
    sim, _net, flow = _warm_train()
    received, delivered = flow.received, sim.tracer.count(DELIVERED)
    calls = _python_calls(sim.run_for, 0.02)
    received = flow.received - received
    delivered = sim.tracer.count(DELIVERED) - delivered

    assert received >= 199              # the window really carried traffic
    assert delivered >= 9 * received    # 7 fabric links + 2 host links
    assert calls / delivered <= MAX_CALLS_PER_DELIVERY, (
        f"{calls} Python calls for {delivered} link deliveries "
        f"({calls / delivered:.1f} per delivery)")


def test_unicast_hop_retains_nothing_it_delivered():
    sim, net, _flow = _warm_train()
    delivered = sim.tracer.count(DELIVERED)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        sim.run_for(0.02)
        growth = gc.get_count()[0] - before
    finally:
        if was_enabled:
            gc.enable()
    delivered = sim.tracer.count(DELIVERED) - delivered
    assert delivered >= 1_800

    held = [event for wire in net.links.values()
            for direction in wire._dirs.values()
            for event in direction.pending]
    assert all(event._sim is sim for event in held)   # none has fired
    assert len(held) <= 4                # a frame or two mid-flight
    assert growth <= MAX_GEN0_GROWTH, (
        f"{growth} container objects outlived {delivered} deliveries")


def _live_events() -> int:
    return sum(isinstance(obj, Event) for obj in gc.get_objects())


def test_reclaiming_2000_entries_costs_buckets_not_events():
    """2 000 locks inside 0.1 s: the parent armed, held and fired 2 000
    wheel ``Event``s; the deadlines span two buckets."""
    lock_timeout, port = 0.8, object()
    sim = Simulator(seed=1, keep_trace_records=False)
    table = LockedAddressTable(lock_timeout, learnt_timeout=300.0,
                               guard_timeout=0.5, sim=sim)
    gc.collect()
    events_before = _live_events()
    peak_wheel = 0
    for batch in range(20):             # 20 x 100 locks over [0.15, 0.25)
        sim.run(until=0.15 + batch * 0.005)
        for i in range(100):
            table.lock(MAC(0x02_00_00_00_00_00 | batch * 100 + i), port,
                       sim.now)
        peak_wheel = max(peak_wheel, len(sim.wheel))
    assert len(table) == 2000

    sim.run(until=0.6)                  # mid-window: every lock still live
    assert table.occupancy(sim.now)["locked"] == 2000
    assert _live_events() - events_before <= 4
    assert sim.pending_events <= 4

    sim.run(until=0.25 + lock_timeout + 2 * RECLAIM_GRANULE)
    assert table.counters.expiries == 2000
    assert len(table) == 0
    assert sim.events_processed <= 4, sim.events_processed
    assert peak_wheel <= 4
    assert sim.pending_events == 0


#: Bytes a sim-backed table holds per live LOCKED entry: the entry
#: object, its floats and its share of the store's dicts and buckets.
#: The parent of the one-deadline change measured 234.3 B (a ``created``
#: float, separate ``expires`` / ``race_until`` floats and a second
#: key → slot dict); the change itself 149.6 B. The bound leaves ~13 %
#: headroom for dict sizing across interpreter versions.
MAX_BYTES_PER_LOCKED_ENTRY = 170


def test_a_locked_entry_costs_one_object_and_one_deadline():
    """2 000 races each lock at their own arrival instant, as bridges
    do: a lock must not keep that instant's float alive."""
    sim = Simulator(seed=1, keep_trace_records=False)
    table = LockedAddressTable(0.8, learnt_timeout=300.0,
                               guard_timeout=0.5, sim=sim)
    port = object()
    macs = [MAC(0x02_00_00_00_00_00 | i) for i in range(2000)]
    sim.run(until=0.15)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, mac in enumerate(macs):
            table.lock(mac, port, 0.15 + i * 1e-5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.occupancy(0.2)["locked"] == 2000
    assert held / 2000 <= MAX_BYTES_PER_LOCKED_ENTRY, held / 2000


# -- what an STP hello costs -------------------------------------------------

#: Python calls per config BPDU received — engine pop, link, store,
#: relay, everything in the window — over ten hello periods of a
#: converged fabric. The parent of the recompute-on-change change
#: measured 139.6 (ring) / 136.3 (grid); the change itself 54.4 / 39.9.
STP_WIRINGS = {
    "ring": (lambda sim: ring(sim, stp_scaled(0.1), 6), 56),
    "grid": (lambda sim: grid(sim, stp_scaled(0.1), 3, 3), 41),
}


def _stp_total(net, counter) -> int:
    return sum(getattr(bridge.stp_counters, counter)
               for bridge in net.bridges.values())


@pytest.mark.parametrize("wiring", sorted(STP_WIRINGS))
def test_stp_hellos_recompute_nothing_and_a_cut_a_bounded_few(wiring):
    build, max_calls_per_bpdu = STP_WIRINGS[wiring]
    sim = Simulator(seed=1, keep_trace_records=False)
    net = build(sim)
    net.run(6.0)                         # x0.1 timers: converged by 4.5 s

    recomputes = _stp_total(net, "recomputes")
    received = _stp_total(net, "bpdus_received")
    calls = _python_calls(sim.run_for, 2.0)     # ten hello periods
    received = _stp_total(net, "bpdus_received") - received
    assert received >= 10 * len(net.fabric_links())
    assert _stp_total(net, "recomputes") == recomputes
    assert calls / received <= max_calls_per_bpdu, (
        f"{calls} Python calls for {received} config BPDUs "
        f"({calls / received:.1f} per BPDU)")

    # Cut a link the tree uses: each fabric port's stored vector changes
    # a bounded number of times while the tree re-forms, and only a
    # change (or an age-out, or the carrier loss itself) recomputes.
    in_tree = next(
        wire for wire in net.fabric_links()
        if all(port.node.port_state(port) is PortState.FORWARDING
               for port in (wire.port_a, wire.port_b)))
    in_tree.take_down()
    net.run(8.0)
    repair = _stp_total(net, "recomputes") - recomputes
    assert 2 <= repair <= 2 * len(net.fabric_links()), repair


# -- what an end host and an SPB attachment lookup cost ----------------------

def _calls_under(code, ethertype, run, *args):
    """(Python calls made by *code* and everything below it, entries of
    *code*), counting only entries whose ``frame`` argument, when it has
    one, carries *ethertype*."""
    calls = depth = entries = 0

    def profiler(frame, event, arg):
        nonlocal calls, depth, entries
        if event == "call":
            if depth:
                depth += 1
                calls += 1
            elif frame.f_code is code and (
                    ethertype is None
                    or frame.f_locals["frame"].ethertype == ethertype):
                depth, entries, calls = 1, entries + 1, calls + 1
        elif event == "return" and depth:
            depth -= 1

    sys.setprofile(profiler)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
    return calls, entries


def _occupancy_ring(factory, hosts_per_bridge=4):
    """The ``occupancy`` wiring: a 4-bridge ring, 16 hosts by default."""
    sim = Simulator(seed=1, keep_trace_records=False)
    net = ring(sim, factory, 4, hosts_per_bridge=hosts_per_bridge)
    net.run(1.0)
    return sim, net


#: Python calls per broadcast ARP a host receives (handle_frame and all
#: below it). The parent of the integer host stack measured 16.0; the
#: change itself 4.0 (the first binding of each sender allocates an
#: ``ArpEntry``).
MAX_CALLS_PER_HOST_ARP = 5


def test_a_host_hears_a_broadcast_arp_in_a_few_python_calls():
    sim, net = _occupancy_ring(arppath())
    for host in net.hosts.values():
        host.gratuitous_arp()            # every host hears 15 of these
    calls, heard = _calls_under(Host.handle_frame.__code__, ETHERTYPE_ARP,
                                sim.run_for, 0.01)
    assert heard == 16 * 15
    assert calls / heard <= MAX_CALLS_PER_HOST_ARP, (
        f"{calls} Python calls for {heard} received broadcast ARPs")


#: Python calls per UDP packet in the two hosts: ``send_udp`` down to the
#: sending NIC's link, plus ``handle_frame`` up to the sink callback
#: (itself included). The parent measured 19.4; the change itself 13.4.
MAX_CALLS_PER_UDP_PACKET = 14.4


def test_a_udp_packet_costs_the_hosts_a_fixed_handful_of_calls():
    sim, net = _occupancy_ring(arppath())
    src, dst = net.hosts["H0"], net.hosts["H15"]
    sink = []
    dst.bind_udp(5001, lambda *args: sink.append(args))
    src.send_udp(dst.ip, 5000, 5001, b"warm")     # resolves, locks the path
    sim.run_for(0.01)
    assert len(sink) == 1

    sent = 0
    for _ in range(20):
        calls, entries = _calls_under(Host.send_udp.__code__, None,
                                      src.send_udp, dst.ip, 5000, 5001,
                                      b"x" * 64)
        sent += calls
    assert entries == 1
    received, heard = _calls_under(Host.handle_frame.__code__,
                                   ETHERTYPE_IPV4, sim.run_for, 0.01)
    assert heard == 20 and len(sink) == 21
    per_packet = (sent + received) / 20
    assert per_packet <= MAX_CALLS_PER_UDP_PACKET, per_packet


#: ``MAC.__eq__`` calls per ``attachment_bridge`` lookup of a remote
#: host. The parent scanned each LSP's host tuple and measured 2.0 with
#: one host per bridge and 9.5 with four; the change itself 0 and 0.
MAX_EQ_PER_ATTACHMENT = 1


@pytest.mark.parametrize("hosts_per_bridge", [1, 4])
def test_spb_finds_a_hosts_bridge_without_comparing_macs(hosts_per_bridge):
    sim, net = _occupancy_ring(spb(), hosts_per_bridge)
    sim.run_for(8.0)                      # SPB warm-up: adjacencies, LSDB
    for host in net.hosts.values():
        host.gratuitous_arp()             # attaches every host
    sim.run_for(1.0)
    bridge = net.bridges["B0"]
    remote = [host.mac for host in net.hosts.values()
              if bridge.attachment_bridge(host.mac) != bridge.mac]
    assert len(remote) == 3 * hosts_per_bridge

    def lookup_all():
        for mac in remote:
            assert bridge.attachment_bridge(mac) is not None

    calls, _ = _calls_under(MAC.__eq__.__code__, None, lookup_all)
    assert calls / len(remote) <= MAX_EQ_PER_ATTACHMENT, (
        f"{calls} MAC.__eq__ calls for {len(remote)} lookups")
