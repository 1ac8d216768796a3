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
engine a handful of events and no retained ``Event`` per row.

The fourth guard is on the baseline family: an 802.1D bridge recomputes
on change, not on receipt (``stp.bridge`` docstring), so the hellos of a
converged tree run no ``_recompute`` at all and a cut runs a bounded few.
"""

import gc
import sys

import pytest

from repro.core.table import LockedAddressTable
from repro.frames.mac import MAC
from repro.netsim.aging import RECLAIM_GRANULE
from repro.netsim.engine import Event, Simulator
from repro.netsim.tracer import DELIVERED
from repro.stp import PortState
from repro.topology import grid, line, ring
from repro.topology.factories import arppath, stp_scaled
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
