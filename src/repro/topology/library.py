"""A library of ready-made topologies.

``netfpga_demo`` models the paper's Figure 2/3 wiring; the others are
the structured and random graphs the property and ablation experiments
sweep over. Every function takes a :data:`BridgeFactory` so one wiring
can run any protocol.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.netsim.engine import Simulator
from repro.netsim.errors import TopologyError
from repro.netsim.link import DEFAULT_BANDWIDTH
from repro.topology.builder import BridgeFactory, Network

#: Default fast-link latency (10 µs, a short gigabit cable).
FAST_LINK = 10e-6
#: Default slow-link latency used for the demo's "long" cross cable.
SLOW_LINK = 500e-6
#: Host attachment latency (1 µs, a patch cable).
HOST_LINK = 1e-6


@dataclass(frozen=True)
class DemoParams:
    """Parameters of the NetFPGA demo topology (Figure 2).

    Four bridges in a ring with one cross link; hosts A and B sit on
    opposite corners. The cross link is *cheap for STP* (same bandwidth,
    so same 802.1D path cost) but *slow in latency* — the configuration
    where a latency-blind tree picks a worse path than the ARP race.
    """

    ring_latency: float = FAST_LINK
    cross_latency: float = SLOW_LINK
    host_latency: float = HOST_LINK
    bandwidth: float = DEFAULT_BANDWIDTH


def netfpga_demo(sim: Simulator, factory: BridgeFactory,
                 params: DemoParams = DemoParams()) -> Network:
    """The 4-NetFPGA demo wiring: ring NF1-NF2-NF3-NF4 plus cross NF1-NF3.

    Host A attaches to NF1 and host B to NF3. The direct NF1-NF3 cross
    cable is one hop (best by 802.1D cost) but high latency; the
    two-hop ring paths are low latency. STP sends A→B over the cross;
    ARP-Path races and picks a ring path.
    """
    net = Network(sim, bridge_factory=factory)
    net.add_bridges("NF1", "NF2", "NF3", "NF4")
    net.add_host("A")
    net.add_host("B")
    net.link("NF1", "NF2", latency=params.ring_latency,
             bandwidth=params.bandwidth)
    net.link("NF2", "NF3", latency=params.ring_latency,
             bandwidth=params.bandwidth)
    net.link("NF3", "NF4", latency=params.ring_latency,
             bandwidth=params.bandwidth)
    net.link("NF4", "NF1", latency=params.ring_latency,
             bandwidth=params.bandwidth)
    net.link("NF1", "NF3", latency=params.cross_latency,
             bandwidth=params.bandwidth)
    net.attach("A", "NF1", latency=params.host_latency,
               bandwidth=params.bandwidth)
    net.attach("B", "NF3", latency=params.host_latency,
               bandwidth=params.bandwidth)
    return net


def line(sim: Simulator, factory: BridgeFactory, n: int,
         latency: float = FAST_LINK,
         hosts_at_ends: bool = True) -> Network:
    """*n* bridges in a line; optionally a host at each end."""
    if n < 1:
        raise TopologyError(f"need at least one bridge, got {n}")
    net = Network(sim, bridge_factory=factory)
    names = [f"B{i}" for i in range(n)]
    for name in names:
        net.add_bridge(name)
    for left, right in zip(names, names[1:]):
        net.link(left, right, latency=latency)
    if hosts_at_ends:
        net.add_host("H0")
        net.attach("H0", names[0], latency=HOST_LINK)
        net.add_host("H1")
        net.attach("H1", names[-1], latency=HOST_LINK)
    return net


def ring(sim: Simulator, factory: BridgeFactory, n: int,
         latency: float = FAST_LINK, hosts_per_bridge: int = 1,
         latencies: Optional[Sequence[float]] = None) -> Network:
    """*n* bridges in a ring, each with *hosts_per_bridge* hosts.

    *latencies* overrides the per-segment latency (length must be *n*).
    """
    if n < 3:
        raise TopologyError(f"a ring needs at least 3 bridges, got {n}")
    if latencies is not None and len(latencies) != n:
        raise TopologyError(
            f"need {n} latencies, got {len(latencies)}")
    net = Network(sim, bridge_factory=factory)
    names = [f"B{i}" for i in range(n)]
    for name in names:
        net.add_bridge(name)
    for i in range(n):
        seg_latency = latencies[i] if latencies is not None else latency
        net.link(names[i], names[(i + 1) % n], latency=seg_latency)
    host_index = 0
    for name in names:
        for _ in range(hosts_per_bridge):
            host = f"H{host_index}"
            host_index += 1
            net.add_host(host)
            net.attach(host, name, latency=HOST_LINK)
    return net


def grid(sim: Simulator, factory: BridgeFactory, rows: int, cols: int,
         latency: float = FAST_LINK, hosts_at_corners: bool = True,
         latency_jitter: float = 0.0,
         seed: int = 0) -> Network:
    """A rows×cols mesh of bridges (rich in redundant paths).

    *latency_jitter* adds a deterministic uniform extra latency in
    ``[0, jitter)`` per link so the minimum-latency path is unique.
    """
    if rows < 1 or cols < 1:
        raise TopologyError(f"bad grid dimensions {rows}x{cols}")
    rng = random.Random(seed)
    net = Network(sim, bridge_factory=factory)
    for r in range(rows):
        for c in range(cols):
            net.add_bridge(f"B{r}_{c}")

    def jittered() -> float:
        if latency_jitter:
            return latency + rng.uniform(0, latency_jitter)
        return latency

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                net.link(f"B{r}_{c}", f"B{r}_{c + 1}", latency=jittered())
            if r + 1 < rows:
                net.link(f"B{r}_{c}", f"B{r + 1}_{c}", latency=jittered())
    if hosts_at_corners:
        corners = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
        seen = []
        for index, (r, c) in enumerate(corners):
            if (r, c) in seen:
                continue
            seen.append((r, c))
            host = f"H{index}"
            net.add_host(host)
            net.attach(host, f"B{r}_{c}", latency=HOST_LINK)
    return net


def fat_tree(sim: Simulator, factory: BridgeFactory, pods: int = 4,
             core_latency: float = FAST_LINK,
             edge_latency: float = FAST_LINK,
             hosts_per_edge: int = 2,
             latency_jitter: float = 0.1,
             seed: int = 0) -> Network:
    """A two-layer leaf/spine fabric (*pods* leaves, pods//2 spines).

    The load-distribution experiment (paper §2.2 "path diversity") runs
    many flows over this fabric: ARP-Path spreads them over the spines
    while a spanning tree funnels everything through one.

    *latency_jitter* adds a deterministic per-link latency variation of
    up to ``jitter x core_latency`` — modelling the cable-length and
    PHY variance real hardware always has, which is what makes each
    source/destination pair's ARP race land on its own fastest spine.
    """
    if pods < 2:
        raise TopologyError(f"need at least 2 pods, got {pods}")
    spines = max(pods // 2, 1)
    rng = random.Random(seed)
    net = Network(sim, bridge_factory=factory)
    spine_names = [f"S{i}" for i in range(spines)]
    leaf_names = [f"L{i}" for i in range(pods)]
    for name in spine_names + leaf_names:
        net.add_bridge(name)
    for leaf in leaf_names:
        for spine in spine_names:
            jitter = rng.uniform(0, latency_jitter * core_latency)
            net.link(leaf, spine, latency=core_latency + jitter)
    host_index = 0
    for leaf in leaf_names:
        for _ in range(hosts_per_edge):
            host = f"H{host_index}"
            host_index += 1
            net.add_host(host)
            net.attach(host, leaf, latency=edge_latency)
    return net


def random_graph(sim: Simulator, factory: BridgeFactory, n: int,
                 extra_edge_prob: float = 0.3, seed: int = 0,
                 latency_range: Tuple[float, float] = (5e-6, 200e-6),
                 hosts: int = 4) -> Network:
    """A connected random graph with heterogeneous link latencies.

    A random spanning tree guarantees connectivity; every remaining pair
    gains an edge with probability *extra_edge_prob*. Latencies are
    drawn uniformly from *latency_range* — the heterogeneity that makes
    minimum-latency path selection non-trivial.
    """
    if n < 2:
        raise TopologyError(f"need at least 2 bridges, got {n}")
    if hosts > n:
        raise TopologyError(f"cannot place {hosts} hosts on {n} bridges")
    rng = random.Random(seed)
    net = Network(sim, bridge_factory=factory)
    names = [f"B{i}" for i in range(n)]
    for name in names:
        net.add_bridge(name)

    def draw_latency() -> float:
        return rng.uniform(*latency_range)

    # Random spanning tree: attach each new node to a random earlier one.
    for i in range(1, n):
        j = rng.randrange(i)
        net.link(names[i], names[j], latency=draw_latency())
    for i, j in itertools.combinations(range(n), 2):
        pair = f"B{i}-B{j}"
        reverse = f"B{j}-B{i}"
        if pair in net.links or reverse in net.links:
            continue
        if rng.random() < extra_edge_prob:
            net.link(names[i], names[j], latency=draw_latency())
    host_bridges = rng.sample(names, hosts)
    for index, bridge_name in enumerate(host_bridges):
        host = f"H{index}"
        net.add_host(host)
        net.attach(host, bridge_name, latency=HOST_LINK)
    return net


#: Named wirings the dynamic (churn) scenarios sweep over; each builds
#: a network and nominates a (source, sink) host pair for probe traffic.
CHURN_TOPOLOGIES = ("demo", "line", "ring", "grid")
#: The subset without redundant fabric paths — the only wirings a plain
#: learning switch survives (no loops, no broadcast storm).
LOOP_FREE_TOPOLOGIES = ("line",)


def churn_topology(sim: Simulator, factory: BridgeFactory, name: str,
                   seed: int = 0) -> Tuple[Network, str, str]:
    """Build the named churn wiring; returns ``(net, src_host, dst_host)``.

    The host pair sits at maximum separation so fabric churn between
    them is observable on a probe stream.
    """
    if name == "demo":
        return netfpga_demo(sim, factory), "A", "B"
    if name == "line":
        return line(sim, factory, 4), "H0", "H1"
    if name == "ring":
        return ring(sim, factory, 4), "H0", "H2"
    if name == "grid":
        return grid(sim, factory, 3, 3, latency_jitter=2e-6,
                    seed=seed), "H0", "H3"
    raise TopologyError(f"unknown churn topology {name!r} "
                        f"(have: {', '.join(CHURN_TOPOLOGIES)})")


#: Size-parameterised wirings the scale scenario sweeps over. ``line``
#: is the loop-free member — the only one a plain learning switch can
#: run without a broadcast storm.
SCALE_TOPOLOGIES = ("grid", "fat_tree", "random", "line")


def populate_access_ports(net: Network, endpoints_per_port: int,
                          latency: float = HOST_LINK) -> None:
    """Scale a wiring's endpoint count without changing its shape.

    For every existing host ``H`` (sorted, so the address allocation is
    deterministic) a flyweight population named ``f"{H}P"`` of
    ``endpoints_per_port - 1`` endpoints joins the same access bridge —
    the original host keeps carrying the probe traffic, the population
    carries the bulk. ``endpoints_per_port <= 1`` is a no-op, keeping
    every existing wiring byte-identical to before this axis existed.
    """
    if endpoints_per_port <= 1:
        return
    for host_name in sorted(net.hosts):
        peer = net.hosts[host_name].port.peer
        if peer is None:
            raise TopologyError(
                f"cannot populate detached host: {host_name}")
        net.add_population(f"{host_name}P", endpoints_per_port - 1)
        net.attach(f"{host_name}P", peer.node.name, latency=latency)


def scale_topology(sim: Simulator, factory: BridgeFactory, kind: str,
                   n: int, seed: int = 0,
                   endpoints_per_port: int = 1) -> Tuple[Network, str, str]:
    """Build the named wiring sized to roughly *n* bridges.

    Returns ``(net, src_host, dst_host)`` with the host pair at maximum
    separation, mirroring :func:`churn_topology`. *n* is a target: each
    family rounds to its nearest feasible shape (grids to rows x cols,
    fat trees to pods + pods//2 switches), so read the actual bridge
    count off the returned network. *endpoints_per_port* > 1 multiplies
    the endpoint count behind every access port with flyweight
    populations (:func:`populate_access_ports`) without adding bridges
    or links. Deterministic in (kind, n, seed, endpoints_per_port).
    """
    if n < 4:
        raise TopologyError(f"scale topologies start at 4 bridges, got {n}")
    if kind == "grid":
        rows = max(2, int(round(n ** 0.5)))
        cols = max(2, (n + rows - 1) // rows)
        net = grid(sim, factory, rows, cols, hosts_at_corners=True,
                   latency_jitter=2e-6, seed=seed)
        pair = ("H0", "H3")  # opposite corners (0,0) and (rows-1,cols-1)
    elif kind == "fat_tree":
        # pods leaves + pods//2 spines ~= n bridges, one host per leaf.
        pods = max(2, int(round(n * 2 / 3)))
        net = fat_tree(sim, factory, pods=pods, hosts_per_edge=1, seed=seed)
        pair = ("H0", f"H{pods - 1}")
    elif kind == "random":
        net = random_graph(sim, factory, n=n, seed=seed, hosts=4)
        pair = ("H0", "H1")
    elif kind == "line":
        net = line(sim, factory, n)
        pair = ("H0", "H1")
    else:
        raise TopologyError(f"unknown scale topology {kind!r} "
                            f"(have: {', '.join(SCALE_TOPOLOGIES)})")
    populate_access_ports(net, endpoints_per_port)
    return net, pair[0], pair[1]


def pair(sim: Simulator, factory: BridgeFactory,
         latency: float = FAST_LINK) -> Network:
    """The smallest interesting network: two bridges, two hosts."""
    net = Network(sim, bridge_factory=factory)
    net.add_bridges("B0", "B1")
    net.link("B0", "B1", latency=latency)
    net.add_host("H0")
    net.attach("H0", "B0", latency=HOST_LINK)
    net.add_host("H1")
    net.attach("H1", "B1", latency=HOST_LINK)
    return net
