"""Deterministic cost guard for the ARP-Path unicast hot path.

The invariant is *one table probe per address per hop* (ARCHITECTURE
§"slim hot path"): ``on_unicast`` learns the source with one probe,
looks the destination up with one probe and confirms the entry it got.
A wall-clock assertion would flake; the number of Python-level ``call``
events per link delivery is a count — it repeats exactly and moves the
day someone re-adds a probe or a wrapper frame.
"""

import sys

from repro.netsim.engine import Simulator
from repro.netsim.tracer import DELIVERED
from repro.topology import line
from repro.topology.factories import arppath
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


def test_unicast_hop_costs_at_most_16_python_calls_per_delivery():
    sim = Simulator(seed=1, keep_trace_records=False)
    net = line(sim, arppath(), 8)
    net.run(5.0)                         # hellos classify the ports

    matrix = TrafficMatrix(net)
    flow = matrix.add_flow("H0", "H1", packets=10_000, interval=1e-4)
    matrix.start()
    net.run(0.005)                       # ARP race + ~50 packets: path LEARNT
    assert flow.received > 40

    received, delivered = flow.received, sim.tracer.count(DELIVERED)
    calls = _python_calls(sim.run_for, 0.02)
    received = flow.received - received
    delivered = sim.tracer.count(DELIVERED) - delivered

    assert received >= 199              # the window really carried traffic
    assert delivered >= 9 * received    # 7 fabric links + 2 host links
    assert calls / delivered <= MAX_CALLS_PER_DELIVERY, (
        f"{calls} Python calls for {delivered} link deliveries "
        f"({calls / delivered:.1f} per delivery)")
