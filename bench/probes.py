"""Micro-probes: one public call in a tight loop on a standalone fixture.

Each probe reports nanoseconds per call over at least ``min_seconds`` of
timed loop. Fixtures are built outside the timed region. The numbers are
for comparing two commits and for the flagged ``*.est_share`` estimates;
they are not a model of the call's cost inside a full simulation.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

from repro.core.config import DEFAULT_CONFIG
from repro.core.table import LockedAddressTable
from repro.frames.arp import make_request
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_IPV4,
                                   EthernetFrame)
from repro.frames.ipv4 import IPv4Address
from repro.frames.mac import BROADCAST, MAC
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.topology.factories import arppath

Batch = Callable[[], Tuple[int, float]]


class _Sink(Node):
    """A node that swallows every frame."""

    def handle_frame(self, port, frame) -> None:
        pass


def _noop() -> None:
    pass


def _ns_per_call(batch: Batch, min_seconds: float) -> float:
    calls, spent = 0, 0.0
    while spent < min_seconds:
        n, seconds = batch()
        calls += n
        spent += seconds
    return 1e9 * spent / calls


def _sim() -> Simulator:
    return Simulator(seed=0, keep_trace_records=False)


def _bridge_with_sinks(sim: Simulator, ports: int):
    bridge = arppath()(sim, "B", MAC(0x02_00_00_00_00_01))
    for index in range(ports):
        sink = _Sink(sim, f"S{index}")
        Link(sim, bridge.add_port(), sink.add_port(), bandwidth=None)
    return bridge


def _handle_in_chunks(sim: Simulator, bridge, ingress, frames,
                      chunk: int = 32) -> float:
    """Seconds inside ``handle_frame`` over *frames*.

    The forwarded copies are drained, untimed, after every chunk: a link
    scans its in-flight deliveries on each transmit, so letting them
    pile up would time the pile and not the call.
    """
    handle = bridge.handle_frame
    spent = 0.0
    for offset in range(0, len(frames), chunk):
        batch = frames[offset:offset + chunk]
        start = time.perf_counter()
        for frame in batch:
            handle(ingress, frame)
        spent += time.perf_counter() - start
        sim.run()
    return spent


def _event_probe() -> Batch:
    def batch(n: int = 20000) -> Tuple[int, float]:
        sim = _sim()
        start = time.perf_counter()
        for i in range(n):
            sim.schedule(i * 1e-6, _noop)
        sim.run()
        return n, time.perf_counter() - start
    return batch


def _timer_churn_probe() -> Batch:
    def batch(n: int = 20000) -> Tuple[int, float]:
        sim = _sim()
        start = time.perf_counter()
        timers = [sim.schedule_timer(1.0 + i * 1e-4, _noop)
                  for i in range(n)]
        for i, timer in enumerate(timers):
            if i % 10:
                timer.cancel()
        sim.run()
        return n, time.perf_counter() - start
    return batch


def _transmit_probe() -> Batch:
    sim = _sim()
    a, b = _Sink(sim, "a"), _Sink(sim, "b")
    port = a.add_port()
    link = Link(sim, port, b.add_port())
    frame = EthernetFrame(dst=MAC(2), src=MAC(1), ethertype=ETHERTYPE_IPV4,
                          payload=None)

    def batch(n: int = 5000) -> Tuple[int, float]:
        run = sim.run
        start = time.perf_counter()
        for _ in range(n):
            link.transmit(port, frame)
            run()
        return n, time.perf_counter() - start
    return batch


def _unicast_probe() -> Batch:
    sim = _sim()
    bridge = _bridge_with_sinks(sim, 2)
    src, dst = MAC(0x02_00_00_00_01_01), MAC(0x02_00_00_00_01_02)
    ingress, egress = bridge.ports
    bridge.table.learn(src, ingress, sim.now)
    bridge.table.learn(dst, egress, sim.now)
    frames = [EthernetFrame(dst=dst, src=src, ethertype=ETHERTYPE_IPV4,
                            payload=None)] * 4000
    return lambda: (len(frames),
                    _handle_in_chunks(sim, bridge, ingress, frames))


def _arp_probe() -> Batch:
    target = IPv4Address("10.255.0.1")
    frames = []
    for i in range(4000):
        mac = MAC(0x02_00_00_01_00_00 + i)
        frames.append(EthernetFrame(
            dst=BROADCAST, src=mac, ethertype=ETHERTYPE_ARP,
            payload=make_request(mac, IPv4Address(0x0A_00_00_00 + i + 1),
                                 target)))

    def batch() -> Tuple[int, float]:
        sim = _sim()  # a fresh table, so every source is new to it
        bridge = _bridge_with_sinks(sim, 4)
        return len(frames), _handle_in_chunks(sim, bridge, bridge.ports[0],
                                              frames)
    return batch


def _table_probe(method: str, prefill: bool) -> Callable[[], Batch]:
    def make() -> Batch:
        port = _Sink(_sim(), "s").add_port()
        macs = [MAC(0x02_00_00_02_00_00 + i) for i in range(20000)]

        def batch() -> Tuple[int, float]:
            table = LockedAddressTable(DEFAULT_CONFIG.lock_timeout,
                                       DEFAULT_CONFIG.learnt_timeout,
                                       DEFAULT_CONFIG.guard_timeout,
                                       sim=_sim())
            if prefill:
                for mac in macs:
                    table.learn(mac, port, 0.0)
            call = getattr(table, method)
            args = (0.0,) if method == "get" else (port, 0.0)
            start = time.perf_counter()
            for mac in macs:
                call(mac, *args)
            return len(macs), time.perf_counter() - start
        return batch
    return make


#: name -> fixture builder returning the timed batch.
PROBES: Dict[str, Callable[[], Batch]] = {
    "engine.event_ns": _event_probe,
    "engine.timer_churn_ns": _timer_churn_probe,
    "link.transmit_ns": _transmit_probe,
    "bridge.handle_frame_unicast_ns": _unicast_probe,
    "bridge.handle_frame_arp_ns": _arp_probe,
    "table.get_ns": _table_probe("get", prefill=True),
    "table.lock_ns": _table_probe("lock", prefill=False),
    "table.learn_ns": _table_probe("learn", prefill=False),
}


def run_probes(min_seconds: float) -> Dict[str, float]:
    return {name: _ns_per_call(make(), min_seconds)
            for name, make in PROBES.items()}
