"""EXP-A3: ablations on the ARP-Path design knobs.

Three sweeps over the design decisions DESIGN.md calls out:

* **Lock timeout** — too short and slow race copies out-live the guard
  (risking re-lock churn); long values only delay re-discovery. We
  measure discovery success and filtered-copy counts across timeouts.
* **Repair buffer** — with the buffer disabled, frames arriving while a
  repair is racing are lost; with it, they are forwarded on completion.
* **Hellos vs static roles** — port classification off (with
  cache-answered repairs) must still repair, at the cost of answering
  from possibly-stale mid-fabric entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import ArpPathConfig
from repro.experiments import registry
from repro.experiments.common import build_and_warm, spec
from repro.metrics.convergence import recovery_from_arrivals
from repro.metrics.report import format_table
from repro.topology.library import netfpga_demo
from repro.traffic.ping import PingSeries
from repro.traffic.video import stream_between


@dataclass
class LockTimeoutRow:
    lock_timeout: float
    rtt_mean: Optional[float]
    losses: int
    relocks: int
    discovery_filtered: int


@dataclass
class RepairBufferRow:
    buffer_size: int
    outage_ms: Optional[float]
    chunks_lost: Optional[int]
    buffered: int
    buffer_drops: int


@dataclass
class HelloRow:
    hello_enabled: bool
    static_roles: bool
    repaired: bool
    outage_ms: Optional[float]


@dataclass
class AblationResult:
    lock_rows: List[LockTimeoutRow] = field(default_factory=list)
    buffer_rows: List[RepairBufferRow] = field(default_factory=list)
    hello_rows: List[HelloRow] = field(default_factory=list)

    def table(self) -> str:
        parts = []
        parts.append(format_table(
            ["lock_timeout_s", "rtt_mean_us", "losses", "relocks",
             "filtered"],
            [[r.lock_timeout,
              r.rtt_mean * 1e6 if r.rtt_mean is not None else None,
              r.losses, r.relocks, r.discovery_filtered]
             for r in self.lock_rows],
            title="EXP-A3a — lock timeout sweep"))
        parts.append(format_table(
            ["buffer_size", "outage_ms", "chunks_lost", "buffered",
             "buffer_drops"],
            [[r.buffer_size, r.outage_ms, r.chunks_lost, r.buffered,
              r.buffer_drops] for r in self.buffer_rows],
            title="EXP-A3b — repair buffer"))
        parts.append(format_table(
            ["hellos", "static_roles", "repaired", "outage_ms"],
            [[r.hello_enabled, r.static_roles, r.repaired, r.outage_ms]
             for r in self.hello_rows],
            title="EXP-A3c — port classification"))
        return "\n\n".join(parts)

    def records(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        for lock in self.lock_rows:
            out.append({"sweep": "lock_timeout",
                        "lock_timeout": lock.lock_timeout,
                        "rtt_mean": lock.rtt_mean, "losses": lock.losses,
                        "relocks": lock.relocks,
                        "discovery_filtered": lock.discovery_filtered})
        for buf in self.buffer_rows:
            out.append({"sweep": "repair_buffer",
                        "buffer_size": buf.buffer_size,
                        "outage_ms": buf.outage_ms,
                        "chunks_lost": buf.chunks_lost,
                        "buffered": buf.buffered,
                        "buffer_drops": buf.buffer_drops})
        for hello in self.hello_rows:
            out.append({"sweep": "hello",
                        "hello_enabled": hello.hello_enabled,
                        "static_roles": hello.static_roles,
                        "repaired": hello.repaired,
                        "outage_ms": hello.outage_ms})
        return out


def sweep_lock_timeout(timeouts: List[float] = [0.0002, 0.002, 0.8, 5.0],
                       seed: int = 0) -> List[LockTimeoutRow]:
    """Ping across the demo topology under each lock timeout.

    The demo's slowest race copy crosses the 500 µs link, so a lock
    timeout below that lets the losing copy re-lock after the guard
    expires (visible as relocks); above it the race resolves cleanly.
    """
    rows = []
    for timeout in timeouts:
        config = ArpPathConfig(lock_timeout=timeout)
        protocol = spec("arppath", arppath_config=config)
        net = build_and_warm(netfpga_demo, protocol, seed=seed)
        series = PingSeries(net.host("A"), net.host("B").ip, count=10,
                            interval=0.2)
        series.start()
        net.run(4.0)
        series.finalize()
        relocks = sum(b.protocol_counters().get("relocks", 0)
                      for b in net.bridges.values())
        filtered = sum(b.protocol_counters().get("discovery_filtered", 0)
                       for b in net.bridges.values())
        rtts = series.rtts
        rows.append(LockTimeoutRow(
            lock_timeout=timeout,
            rtt_mean=sum(rtts) / len(rtts) if rtts else None,
            losses=series.losses, relocks=relocks,
            discovery_filtered=filtered))
    return rows


def _run_repair_scenario(config: ArpPathConfig, seed: int = 0,
                         static_roles: bool = False):
    """Stream A→B, kill the active path's first fabric link once."""
    protocol = spec("arppath", arppath_config=config)

    def topo(sim, factory):
        net = netfpga_demo(sim, factory)
        if static_roles:
            net.mark_static_roles()
        return net

    net = build_and_warm(topo, protocol, seed=seed)
    source, sink = stream_between(net.host("A"), net.host("B"), fps=100.0)
    source.start()
    net.run(1.0)
    fail_at = net.sim.now + 0.5
    net.sim.at(fail_at, net.links["NF1-NF2"].take_down)
    net.run(3.0)
    source.stop()
    net.run(0.5)
    recovery = recovery_from_arrivals(sink.arrivals, fail_at,
                                      send_interval=1 / 100.0)
    return net, recovery


def sweep_repair_buffer(sizes: List[int] = [0, 4, 32],
                        seed: int = 0) -> List[RepairBufferRow]:
    rows = []
    for size in sizes:
        config = ArpPathConfig(repair_buffer_size=size)
        net, recovery = _run_repair_scenario(config, seed=seed)
        buffered = sum(b.protocol_counters().get("frames_buffered", 0)
                       for b in net.bridges.values())
        drops = sum(b.protocol_counters().get("drops_buffer", 0)
                    for b in net.bridges.values())
        rows.append(RepairBufferRow(
            buffer_size=size,
            outage_ms=recovery.outage * 1e3 if recovery else None,
            chunks_lost=recovery.packets_lost if recovery else None,
            buffered=buffered, buffer_drops=drops))
    return rows


def sweep_hello(seed: int = 0) -> List[HelloRow]:
    """Port classification: hello-based (zero-conf) vs static (NetFPGA)
    vs none — repair needs *some* way to know where the hosts are."""
    cases = [
        # (config, static_roles)
        (ArpPathConfig(hello_enabled=True), False),
        (ArpPathConfig(hello_enabled=False), True),
        (ArpPathConfig(hello_enabled=False,
                       repair_reply_from_cache=True), False),
    ]
    rows = []
    for config, static_roles in cases:
        net, recovery = _run_repair_scenario(config, seed=seed,
                                             static_roles=static_roles)
        completed = sum(b.protocol_counters().get("repairs_completed", 0)
                        for b in net.bridges.values())
        rows.append(HelloRow(
            hello_enabled=config.hello_enabled,
            static_roles=static_roles,
            repaired=completed > 0 and recovery is not None,
            outage_ms=recovery.outage * 1e3 if recovery else None))
    return rows


def ablations(lock_timeouts: List[float], buffer_sizes: List[int],
              seeds: List[int]) -> AblationResult:
    """The three sweeps; each sweep's rows run seed by seed."""
    return AblationResult(
        lock_rows=[row for seed in seeds
                   for row in sweep_lock_timeout(timeouts=lock_timeouts,
                                                 seed=seed)],
        buffer_rows=[row for seed in seeds
                     for row in sweep_repair_buffer(sizes=buffer_sizes,
                                                    seed=seed)],
        hello_rows=[row for seed in seeds for row in sweep_hello(seed=seed)])


registry.register(registry.Scenario(
    name="ablations",
    title="EXP-A3: design-knob sweeps",
    params=(
        registry.Param("lock_timeouts", float, [0.0002, 0.002, 0.8, 5.0],
                       nargs="+",
                       help="locked-table lock timeouts to sweep, in "
                            "seconds"),
        registry.Param("buffer_sizes", int, [0, 4, 32], nargs="+",
                       help="repair buffer capacities to sweep, in "
                            "frames (0 = drop while repairing)"),
        registry.seeds_param(),
    ),
    run=ablations,
    row_keys=("lock_timeout", "buffer_size"),
    smoke={"lock_timeouts": [0.8], "buffer_sizes": [0]},
))
