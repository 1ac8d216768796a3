"""Traffic matrices: many-flow workloads over a network.

The load-distribution and broadcast-overhead experiments need traffic
between many host pairs. A :class:`TrafficMatrix` schedules UDP flows
(or ping trains) between selected pairs with deterministic staggering so
runs replay identically.

Flow endpoints are *names* resolved through :meth:`Network.endpoint`,
so a flow can terminate on an ordinary :class:`~repro.hosts.host.Host`
or on one member of a flyweight :class:`~repro.hosts.population.
HostPopulation` (``"H0P#42"``) interchangeably.

Heavy-tailed workloads (:meth:`TrafficMatrix.elephant_mice`) follow
the determinism contract:
every random draw happens at *generation* time from a caller-seeded
``random.Random``, so the flow list — and therefore the simulation — is
a pure function of (endpoint universe, count, seed), regardless of how
many jobs or shards later execute it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.topology.builder import Network
from repro.traffic.ping import PingSeries

DEFAULT_FLOW_PORT_BASE = 20000

#: Zipf skew of heavy-tailed source popularity (must exceed 1 for the
#: rejection sampler); ~1.2 matches measured datacenter traffic skew.
DEFAULT_ZIPF_ALPHA = 1.2


def zipf_rank(rng: random.Random, alpha: float, n: int) -> int:
    """One Zipf(*alpha*)-distributed rank in ``[1, n]``.

    Devroye's rejection method: O(1) expected draws, no O(n) harmonic
    table — a million-endpoint universe costs the same as ten. Pure
    function of the *rng* stream, so generation-time draws keep the
    flow list deterministic.
    """
    if alpha <= 1.0:
        raise ValueError(f"zipf alpha must exceed 1.0, got {alpha}")
    if n < 1:
        raise ValueError(f"zipf needs a non-empty universe, got n={n}")
    b = 2.0 ** (alpha - 1.0)
    while True:
        u = rng.random()
        v = rng.random()
        x = int(u ** (-1.0 / (alpha - 1.0)))
        t = (1.0 + 1.0 / x) ** (alpha - 1.0)
        if x <= n and v * x * (t - 1.0) / (b - 1.0) <= t / b:
            return x


@dataclass
class Flow:
    """One unidirectional UDP flow between two named hosts."""

    src: str
    dst: str
    packets: int
    interval: float
    size: int
    port: int
    sent: int = 0
    received: int = 0
    latencies: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class _Stamp:
    """Payload carrying the send timestamp for latency measurement."""

    sent_at: float
    size: int

    @property
    def wire_size(self) -> int:
        return self.size


class TrafficMatrix:
    """A set of concurrent flows over *net*.

    ``all_pairs`` builds the full bipartite host×host matrix;
    ``random_pairs`` samples a fixed number of distinct ordered pairs
    using the simulator's seeded RNG.
    """

    def __init__(self, net: Network):
        self.net = net
        self.flows: List[Flow] = []
        self._next_port = DEFAULT_FLOW_PORT_BASE

    # -- construction --------------------------------------------------------

    def add_flow(self, src: str, dst: str, packets: int = 50,
                 interval: float = 1e-3, size: int = 500) -> Flow:
        if src == dst:
            raise ValueError(f"flow endpoints must differ: {src}")
        port = self._next_port
        self._next_port += 1
        flow = Flow(src=src, dst=dst, packets=packets, interval=interval,
                    size=size, port=port)
        self.flows.append(flow)
        return flow

    def all_pairs(self, hosts: Optional[Sequence[str]] = None,
                  **flow_kwargs) -> List[Flow]:
        """One flow for every ordered pair of hosts."""
        names = list(hosts) if hosts is not None else sorted(self.net.hosts)
        return [self.add_flow(src, dst, **flow_kwargs)
                for src, dst in itertools.permutations(names, 2)]

    def random_pairs(self, count: int,
                     hosts: Optional[Sequence[str]] = None,
                     **flow_kwargs) -> List[Flow]:
        """*count* distinct ordered pairs drawn with the simulator RNG."""
        names = list(hosts) if hosts is not None else sorted(self.net.hosts)
        pairs = list(itertools.permutations(names, 2))
        if count > len(pairs):
            raise ValueError(
                f"only {len(pairs)} distinct pairs available, asked {count}")
        chosen = self.net.sim.rng.sample(pairs, count)
        return [self.add_flow(src, dst, **flow_kwargs)
                for src, dst in chosen]

    # -- heavy-tailed construction -------------------------------------------

    def _endpoint_universe(self, endpoints: Optional[Sequence[str]]) \
            -> List[Tuple[str, int]]:
        """``(name, member_count)`` blocks the tail generators draw over.

        *endpoints* names hosts and/or populations (a population name
        stands for its whole block); None means every host then every
        population, name-sorted. Never materialises per-endpoint names:
        a million-endpoint population is one ``(name, size)`` entry.
        """
        if endpoints is None:
            names = sorted(self.net.hosts) \
                + sorted(self.net.populations)
        else:
            names = list(endpoints)
        universe: List[Tuple[str, int]] = []
        for name in names:
            pop = self.net.populations.get(name)
            universe.append((name, pop.size if pop is not None else 1))
        if not universe:
            raise ValueError("no endpoints to draw flows over")
        return universe

    @staticmethod
    def _endpoint_at(universe: List[Tuple[str, int]], rank: int) -> str:
        """The endpoint name at 0-based *rank* in the universe order."""
        for name, size in universe:
            if rank < size:
                return name if size == 1 else f"{name}#{rank}"
            rank -= size
        raise IndexError(f"endpoint rank out of universe: {rank}")

    def _draw_pair(self, rng: random.Random,
                   universe: List[Tuple[str, int]], total: int,
                   alpha: float) -> Tuple[str, str]:
        """One (Zipf source, uniform destination) ordered pair."""
        src = self._endpoint_at(universe, zipf_rank(rng, alpha, total) - 1)
        while True:
            dst = self._endpoint_at(universe, rng.randrange(total))
            if dst != src:
                return src, dst

    def elephant_mice(self, count: int, rng: random.Random,
                      alpha: float = DEFAULT_ZIPF_ALPHA,
                      endpoints: Optional[Sequence[str]] = None,
                      elephant_fraction: float = 0.1,
                      elephant_packets: int = 40, elephant_size: int = 1400,
                      mouse_packets: int = 3, mouse_size: int = 120,
                      interval: float = 1e-3) -> List[Flow]:
        """*count* heavy-tailed flows: Zipf sources, bimodal flow sizes.

        Each flow is an elephant (long, full-size packets) with
        probability *elephant_fraction*, otherwise a mouse — the
        classic datacenter mix where a few flows carry most bytes.
        Sources are rank-skewed over the endpoint universe (rank 1 =
        first endpoint of the first name-sorted block), destinations
        uniform; all draws come from the caller-seeded *rng* at
        generation time, so the flow list is deterministic before the
        simulation runs a single event.
        """
        universe = self._endpoint_universe(endpoints)
        total = sum(size for _, size in universe)
        if total < 2:
            raise ValueError(f"need at least 2 endpoints, have {total}")
        flows = []
        for _ in range(count):
            src, dst = self._draw_pair(rng, universe, total, alpha)
            if rng.random() < elephant_fraction:
                packets, size = elephant_packets, elephant_size
            else:
                packets, size = mouse_packets, mouse_size
            flows.append(self.add_flow(src, dst, packets=packets,
                                       interval=interval, size=size))
        return flows

    # -- execution -----------------------------------------------------------

    def start(self, stagger: float = 1e-4,
              owner: Optional[Callable[[str], bool]] = None,
              bulk: bool = False) -> None:
        """Bind sinks and schedule every flow, staggering flow starts.

        *owner* gates the work by endpoint name for sharded runs: a
        sink binds only when this engine owns the destination, a flow
        schedules only when it owns the source — while flow indices
        (and so ports and stagger offsets) stay globally identical.
        *bulk* files the flow starts through ``schedule_bulk`` (one
        heapify, not len(flows) pushes) for population-scale matrices.
        """
        specs = []
        for index, flow in enumerate(self.flows):
            if owner is None or owner(flow.dst):
                self._bind_sink(flow)
            if owner is None or owner(flow.src):
                specs.append((index * stagger, self._run_flow, flow))
        if bulk:
            self.net.sim.schedule_bulk(specs)
        else:
            for offset, run, flow in specs:
                self.net.sim.schedule(offset, run, flow)

    def _bind_sink(self, flow: Flow) -> None:
        sink = self.net.endpoint(flow.dst)

        def on_packet(src_ip, sport, payload, packet, flow=flow):
            flow.received += 1
            if isinstance(payload, _Stamp):
                flow.latencies.append(self.net.sim.now - payload.sent_at)

        sink.bind_udp(flow.port, on_packet)

    def _run_flow(self, flow: Flow) -> None:
        src = self.net.endpoint(flow.src)
        dst_ip = self.net.endpoint(flow.dst).ip

        def send_one() -> None:
            if flow.sent >= flow.packets:
                return
            stamp = _Stamp(sent_at=self.net.sim.now, size=flow.size)
            src.send_udp(dst_ip, flow.port, flow.port, stamp)
            flow.sent += 1
            if flow.sent < flow.packets:
                self.net.sim.schedule(flow.interval, send_one)

        send_one()

    # -- analysis ----------------------------------------------------------

    @property
    def total_sent(self) -> int:
        return sum(flow.sent for flow in self.flows)

    @property
    def total_received(self) -> int:
        return sum(flow.received for flow in self.flows)

    @property
    def delivery_rate(self) -> float:
        sent = self.total_sent
        return self.total_received / sent if sent else 0.0


def all_pairs_arp_warmup(net: Network, spacing: float = 5e-3) -> float:
    """Make every host resolve every other host's address.

    Returns the simulated time consumed. Used before load experiments so
    measurement traffic is pure unicast.
    """
    names = sorted(net.hosts)
    delay = 0.0
    for src, dst in itertools.permutations(names, 2):
        source = net.host(src)
        target = net.host(dst)
        net.sim.schedule(delay, source.ping, target.ip)
        delay += spacing
    total = delay + 1.0
    net.run(total)
    return total
