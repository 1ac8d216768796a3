"""Shared test/bench helpers, importable as a real module.

Historically these lived in ``tests/conftest.py`` and were imported
with ``from conftest import ...`` — which resolves to whichever
``conftest.py`` pytest put on ``sys.path`` first and breaks collection
from the repository root. Living under :mod:`repro` makes them
importable from tests, benchmarks and examples alike.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import ArpPathConfig
from repro.frames.ipv4 import IPv4Address
from repro.frames.mac import MAC
from repro.netsim.engine import Simulator
from repro.netsim.tracer import TraceRecord
from repro.topology.builder import Network


def ping_once(net: Network, src: str, dst: str,
              timeout: float = 2.0) -> Optional[float]:
    """Ping from *src* to *dst*; returns the RTT or None on loss."""
    rtts = []
    source = net.host(src)
    target = net.host(dst)
    source.ping(target.ip, on_reply=lambda seq, rtt: rtts.append(rtt))
    net.run(timeout)
    return rtts[0] if rtts else None


def record_trace(sim: Simulator) -> List[TraceRecord]:
    """A list that collects every record *sim*'s tracer builds from now
    on (detach with ``sim.tracer.remove_listener(records.append)``)."""
    records: List[TraceRecord] = []
    sim.tracer.add_listener(records.append)
    return records


def mac(index: int) -> MAC:
    """Shorthand: a unicast test MAC."""
    return MAC(0x02_00_00_00_10_00 + index)


def ip(index: int) -> IPv4Address:
    """Shorthand: a test IP."""
    return IPv4Address(0x0A000000 + 0x100 + index)


def fast_config(**overrides) -> ArpPathConfig:
    """An ArpPathConfig with quick timers for unit tests."""
    base = dict(lock_timeout=0.1, learnt_timeout=10.0, guard_timeout=0.2,
                hello_interval=0.5, hello_hold=1.75,
                repair_retry_timeout=0.05)
    base.update(overrides)
    return ArpPathConfig(**base)


def graph_of(net: Network, fabric_only: bool = False):
    """The live network as a :mod:`networkx` graph, for test oracles.

    Nodes are node names; each up link is an edge carrying its
    ``latency`` and ``link`` name. Down links and the controller's
    out-of-band star are left out, and ``fabric_only`` drops host
    links too. Tests run Dijkstra and spanning-tree checks over it
    that know nothing of the protocols they judge;
    :func:`repro.metrics.paths.min_latency_path` is held equal to it.
    networkx is a test dependency only, so the import stays here.
    """
    import networkx as nx

    graph = nx.Graph()
    for name_a, name_b, wire in net.edges():
        if fabric_only and (name_a in net.hosts or name_b in net.hosts):
            continue
        if name_a in net.controllers or name_b in net.controllers:
            continue  # out-of-band star links carry no fabric traffic
        if not wire.up:
            continue
        graph.add_edge(name_a, name_b, latency=wire.latency, link=wire.name)
    return graph
