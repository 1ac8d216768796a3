"""EXP-X1: scalability — state, overhead and convergence vs network size.

The paper's §2.2 argues ARP-Path bridging stays viable as the network
grows: per-bridge state follows *active communication* (not topology
size), discovery overhead is one race per conversation, and path setup
needs no convergence protocol. Every other experiment in this repo runs
at a fixed, small size, so none of them can show those claims *scaling*.
This experiment makes topology size a first-class axis: it sweeps
grids, fat trees and random graphs from ~16 up to 200+ bridges across
the bridge families and measures, per (kind, size, protocol) cell:

* **table occupancy per bridge** — peak and mean dynamic state
  (:meth:`~repro.switching.base.Bridge.state_entries`), the
  quantity §2.2 predicts stays flat for ARP-Path while link-state grows
  with the network;
* **broadcast/discovery overhead** — link-level frames transmitted per
  payload delivered to a host, covering the ARP races, control
  protocol and flooding a cold conversation costs;
* **convergence time** — cold-path discovery latency: the time from
  the first probe until its reply arrives (ARP race + path lock);
* **engine bookkeeping** — :data:`ENGINE_FIELDS`, beside the records
  (:meth:`ScaleResult.telemetry`), never in them. Process RSS is
  machine-dependent and recorded only by ``benchmarks/bench_scale.py``.

Traffic is injected with :meth:`Network.announce_hosts`-style bulk
scheduling (:meth:`~repro.netsim.engine.Simulator.schedule_bulk`), so
building a 200-bridge cell stays cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Generator, List, Optional

from repro.experiments import registry
from repro.experiments.common import ProtocolSpec
from repro.frames.ethernet import ETHERTYPE_ARP
from repro.switching import base
from repro.metrics.report import format_table
from repro.netsim import tracer as trc
from repro.netsim.engine import Simulator
from repro.netsim.meminfo import MemorySampler
from repro.netsim.shard import ShardRuntime, derive_shard_seed, run_sharded
from repro.topology.library import SCALE_TOPOLOGIES, scale_topology
from repro.topology.partition import partition_network
from repro.traffic.matrix import TrafficMatrix

#: Wirings without redundant paths — the only ones a plain learning
#: switch survives (mirrors the churn scenario's gate).
LOOP_FREE_SCALE = ("line",)

#: Spacing between successive probe rounds of one pair (seconds).
PROBE_SPACING = 10e-3
#: Stagger between pairs' first probes (seconds).
PAIR_STAGGER = 1e-3
#: Drain budget after the last scheduled probe (seconds).
DRAIN = 1.0
#: Stagger between population flow starts (seconds).
POP_STAGGER = 1e-4
#: Simulated window for the population flow phase: covers the longest
#: elephant (40 packets x 1 ms) plus one full ARP retry interval.
POP_WINDOW = 2.0

#: :class:`ScaleRow` fields that describe the engine, not the network
#: (the peak comes from :class:`~repro.netsim.meminfo.MemorySampler`):
#: kept out of the records, so a change to how the engine schedules
#: moves no record digest.
ENGINE_FIELDS = ("events_processed", "peak_pending_events")


@dataclass
class ScaleRow:
    """One (protocol, kind, size) cell of the size sweep."""

    protocol: str
    kind: str
    size: int
    bridges: int
    links: int
    hosts: int
    convergence_s: Optional[float]
    frames_sent: int
    arp_frames: int
    control_frames: int
    payloads_delivered: int
    peak_state: int
    mean_state: float
    peak_pending_events: int
    probes_sent: int
    probes_answered: int
    events_processed: int
    #: Simulated endpoints (hosts + population members); equals
    #: ``hosts`` unless the cell ran with ``endpoints_per_port`` > 1.
    endpoints: int = 0

    #: Always 0: the engine has one queue. Kept until the benchmark stops
    #: reading it (``bench/workloads.py``, ``engine.peak_wheel_timers``).
    peak_wheel_timers: ClassVar[int] = 0

    def __post_init__(self):
        if not self.endpoints:
            self.endpoints = self.hosts

    @property
    def frames_per_payload(self) -> float:
        """Link transmissions per payload delivered to a host."""
        return self.frames_sent / max(self.payloads_delivered, 1)

    @property
    def events_per_payload(self) -> float:
        """Engine events burnt per payload delivered to a host: the
        event-economy counterpart of :attr:`frames_per_payload`."""
        return self.events_processed / max(self.payloads_delivered, 1)


@dataclass
class ScaleResult:
    rows: List[ScaleRow] = field(default_factory=list)

    def table(self) -> str:
        headers = ["protocol", "kind", "bridges", "links",
                   "convergence_ms", "frames/payload", "arp_frames",
                   "peak_state", "mean_state"]
        body = []
        for row in self.rows:
            body.append([
                row.protocol, row.kind, row.bridges, row.links,
                row.convergence_s * 1e3
                if row.convergence_s is not None else None,
                f"{row.frames_per_payload:.1f}", row.arp_frames,
                row.peak_state, f"{row.mean_state:.1f}",
            ])
        return format_table(
            headers, body,
            title="EXP-X1 — scalability: state, overhead and convergence "
                  "vs network size")

    def records(self) -> List[Dict[str, Any]]:
        out = []
        for row in self.rows:
            out.append({
                "protocol": row.protocol,
                "kind": row.kind,
                "size": row.size,
                "bridges": row.bridges,
                "links": row.links,
                "hosts": row.hosts,
                "endpoints": row.endpoints,
                "convergence_ms": row.convergence_s * 1e3
                if row.convergence_s is not None else None,
                "frames_per_payload": row.frames_per_payload,
                "frames_sent": row.frames_sent,
                "arp_frames": row.arp_frames,
                "control_frames": row.control_frames,
                "payloads_delivered": row.payloads_delivered,
                "peak_state": row.peak_state,
                "mean_state": row.mean_state,
                "probes_sent": row.probes_sent,
                "probes_answered": row.probes_answered,
            })
        return out

    def telemetry(self) -> Dict[str, List[int]]:
        """The engine bookkeeping beside :meth:`records`: each of
        :data:`ENGINE_FIELDS`, one entry per row."""
        return {name: [getattr(row, name) for row in self.rows]
                for name in ENGINE_FIELDS}


def _natural(names) -> List[str]:
    """Host names in natural (H0, H1, ..., H10) order."""
    return sorted(names, key=lambda name: (len(name), name))


def _scale_shard(shard_id: int, shard_count: int, peers,
                 protocol: ProtocolSpec, kind: str, size: int, pairs: int,
                 probes: int, seed: int,
                 endpoints_per_port: int
                 ) -> Generator[dict, dict, Dict[str, Any]]:
    """One engine's share of a cell: build, warm, probe, measure.

    The scenario's one phase schedule: every engine builds the whole
    topology and walks the same phases at the same instants, ownership
    guards (a shard touches only its own nodes) decide who injects and
    counts what. A single engine owns everything. A lockstep body for
    :func:`run_sharded`; returns plain data for
    :func:`_merge_scale_shards`.
    """
    sim = Simulator(seed=derive_shard_seed(seed, shard_id))
    # Builders take the *base* seed: the wiring must be identical in
    # every worker; only the engine stream is per-shard.
    net, src, dst = scale_topology(sim, protocol.factory, kind, size,
                                   seed=seed,
                                   endpoints_per_port=endpoints_per_port)
    runtime = ShardRuntime(sim, shard_id, peers)
    runtime.adopt(net, partition_network(net, shard_count))
    # record_series: whole-run peaks are maxima of *per-instant sums*
    # across shards, so the merge needs every sample, not two peaks.
    sampler = MemorySampler(sim, interval=0.5, record_series=True,
                            adjust=runtime.pending_adjust,
                            count_self=(shard_id == 0))
    sampler.start()
    yield from runtime.run_for(protocol.warmup)

    # Measurement window: count every frame from here on, so the ARP
    # discovery races are part of the overhead (that is the point).
    sim.tracer.reset()
    hosts = _natural(net.hosts)
    owned = [name for name in hosts if runtime.owns(name)]
    replies_before = sum(net.host(name).counters.echo_replies_received
                         for name in owned)

    # Cold-path convergence: first probe of the maximally separated
    # pair, timed to its reply.
    arrivals: List[float] = []
    started = sim.now
    if runtime.owns(src):
        net.host(src).ping(net.host(dst).ip,
                           on_reply=lambda seq, rtt:
                           arrivals.append(sim.now))
    yield from runtime.run_for(0.5)
    convergence = arrivals[0] - started if arrivals else None

    # Bulk probe workload over up to *pairs* maximally separated host
    # pairs — one schedule_bulk batch, not len(specs) heap pushes.
    count = min(pairs, len(hosts) // 2)
    chosen = [(hosts[i], hosts[-1 - i]) for i in range(count)]
    specs = []
    for index, (a, b) in enumerate(chosen):
        if not runtime.owns(a):
            continue
        target = net.host(b).ip
        ping = net.host(a).ping
        for round_index in range(probes):
            specs.append((index * PAIR_STAGGER
                          + round_index * PROBE_SPACING, ping, target,
                          round_index))
    sim.schedule_bulk(specs)
    yield from runtime.run_for(count * PAIR_STAGGER
                               + probes * PROBE_SPACING + DRAIN)

    # Population phase: heavy-tailed flows over the flyweight
    # endpoints, one bulk batch; empty at endpoints_per_port=1. The
    # flow list is drawn identically on every shard (generation-time
    # draws from the base seed); ownership gates which engine binds
    # each sink and schedules each source.
    if net.populations:
        matrix = TrafficMatrix(net)
        matrix.elephant_mice(count=max(pairs * probes, 1),
                             rng=random.Random(seed),
                             endpoints=sorted(net.populations))
        matrix.start(stagger=POP_STAGGER, owner=runtime.owns, bulk=True)
        yield from runtime.run_for(POP_WINDOW)
    sampler.stop()

    owned_pops = [pop for name, pop in net.populations.items()
                  if runtime.owns(name)]
    return {
        "frames_sent": sim.tracer.frames_sent,
        "sent": dict(sim.tracer.by_ethertype[trc.SENT]),
        "payloads": sum(net.host(name).counters.ip_received
                        for name in owned)
        + sum(pop.counters.ip_received for pop in owned_pops),
        "answered": sum(net.host(name).counters.echo_replies_received
                        for name in owned) - replies_before,
        "states": [bridge.state_entries()
                   for name, bridge in net.bridges.items()
                   if runtime.owns(name)],
        "convergence": convergence,
        "bridges": len(net.bridges),
        "links": len(net.links),
        "hosts": len(net.hosts),
        "endpoints": net.endpoint_count(),
        "probes_sent": count * probes + 1,
        "events": sim.events_processed,
        "samples": sampler.samples,
        "series": sampler.series,
    }


def _merge_scale_shards(protocol: ProtocolSpec, kind: str, size: int,
                        shards: List[Dict[str, Any]]) -> ScaleRow:
    """Fold per-shard results into the single-process :class:`ScaleRow`.

    Every field is either owned-once (summable: tracer counts, host
    counters, bridge states), a single-owner scalar (convergence), or
    needs instant-alignment (the sampler series — per-shard peaks fall
    at different instants, so the simulation's peak is the max of the
    per-sample sums). ``events_processed`` subtracts the K-1 replica
    samplers' tick events (``samples - 2``: start and stop are inline,
    not events) — the one place a shard engine processes an event the
    single engine does not.
    """
    first = shards[0]
    sent: Dict[int, int] = {}
    for result in shards:
        for ethertype, count in result["sent"].items():
            sent[ethertype] = sent.get(ethertype, 0) + count
    control = sum(sent.get(ethertype, 0)
                  for ethertype in base.control_ethertypes())
    states = [entry for result in shards for entry in result["states"]]
    convergence = next((result["convergence"] for result in shards
                        if result["convergence"] is not None), None)

    lengths = {len(result["series"]) for result in shards}
    if len(lengths) != 1:
        raise RuntimeError(
            f"shard sampler series diverged in length: {sorted(lengths)}")
    peak_pending = max(sum(instant) for instant in
                       zip(*(result["series"] for result in shards)))

    events = sum(result["events"] for result in shards) \
        - sum(result["samples"] - 2 for result in shards[1:])
    return ScaleRow(
        protocol=protocol.name, kind=kind, size=size,
        bridges=first["bridges"], links=first["links"],
        hosts=first["hosts"], convergence_s=convergence,
        frames_sent=sum(result["frames_sent"] for result in shards),
        arp_frames=sent.get(ETHERTYPE_ARP, 0), control_frames=control,
        payloads_delivered=sum(result["payloads"] for result in shards),
        peak_state=max(states), mean_state=sum(states) / len(states),
        peak_pending_events=peak_pending,
        probes_sent=first["probes_sent"],
        probes_answered=sum(result["answered"] for result in shards),
        events_processed=events, endpoints=first["endpoints"])


def run_case_sharded(protocol: ProtocolSpec, kind: str, size: int,
                     pairs: int = 3, probes: int = 3, seed: int = 0,
                     shards: int = 2,
                     endpoints_per_port: int = 1) -> ScaleRow:
    """One cell across *shards* engines; the row is byte-identical at
    any shard count (partition, boundary synchronisation and merge are
    all exact — see :mod:`repro.netsim.shard`).

    *endpoints_per_port* > 1 parks a flyweight population behind every
    access port and runs a heavy-tailed elephant/mice flow phase over
    the population endpoints after the probe workload — the
    million-endpoint configuration. All flow draws happen at generation
    time from a ``seed``-seeded RNG, so the row stays a pure function
    of the cell at any job or shard count.

    Every engine gets the caller's *protocol* itself, custom and
    pre-scaled specs included: a family factory is a stateless closure
    over a frozen config, safe to share between the shards' engines.
    """
    results = run_sharded(_scale_shard, shards,
                          args=(protocol, kind, size, pairs, probes, seed,
                                endpoints_per_port))
    return _merge_scale_shards(protocol, kind, size, results)


def run_case(protocol: ProtocolSpec, kind: str, size: int, pairs: int = 3,
             probes: int = 3, seed: int = 0,
             endpoints_per_port: int = 1) -> ScaleRow:
    """One cell on a single engine: ``shards=1`` of
    :func:`run_case_sharded`."""
    return run_case_sharded(protocol, kind, size, pairs=pairs,
                            probes=probes, seed=seed, shards=1,
                            endpoints_per_port=endpoints_per_port)


def scale(kind: str, sizes: List[int], protocols: List[str], pairs: int,
          probes: int, stp_scale: float, endpoints_per_port: int,
          seeds: List[int]) -> ScaleResult:
    """The size sweep across bridge families, one engine per cell.

    A plain learning switch storms on any wiring with redundant paths,
    so requesting it outside ``line`` is refused up front.
    """
    if "learning" in protocols and kind not in LOOP_FREE_SCALE:
        raise ValueError(
            f"protocol 'learning' storms on loopy topologies; use one of "
            f"{', '.join(LOOP_FREE_SCALE)} (got {kind!r})")
    chosen = registry.protocol_specs(protocols, stp_scale=stp_scale)
    return ScaleResult(rows=[
        run_case(protocol, kind, size, pairs=pairs, probes=probes,
                 seed=seed, endpoints_per_port=endpoints_per_port)
        for seed in seeds for protocol in chosen for size in sizes])


registry.register(registry.Scenario(
    name="scale",
    title="EXP-X1: scalability — state, overhead, convergence vs size",
    params=(
        registry.Param("kind", str, "grid", choices=SCALE_TOPOLOGIES,
                       help="size-parameterised wiring (grid, fat_tree, "
                            "random, line)"),
        registry.Param("sizes", int, [16, 36, 64], nargs="+",
                       help="target bridge counts, one cell per value"),
        registry.protocols_param(["arppath", "spb"]),
        registry.Param("pairs", int, 3,
                       help="probe host pairs (capped at hosts//2)"),
        registry.Param("probes", int, 3, help="probe rounds per pair"),
        registry.Param("stp_scale", float, 0.1,
                       help="STP timer scale factor (1.0 = IEEE "
                            "default timers)"),
        registry.Param("endpoints_per_port", int, 1,
                       help="simulated endpoints behind each access "
                            "port (1 = plain hosts; >1 swaps in "
                            "flyweight populations and adds the "
                            "heavy-tailed Zipf elephant/mice flow "
                            "phase)"),
        registry.seeds_param(),
    ),
    run=scale,
    row_keys=("size", "bridges", "links", "hosts"),
    smoke={"sizes": [9], "protocols": ["arppath"], "pairs": 1,
           "probes": 1},
))
