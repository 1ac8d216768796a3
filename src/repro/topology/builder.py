"""The network builder: wire bridges, hosts and links by name.

A :class:`Network` owns one simulator plus the node and link registries;
topology functions (:mod:`repro.topology.library`) return fully wired
networks. The *bridge factory* chooses the protocol under test so the
same physical topology can run ARP-Path, STP, SPB or a plain learning
switch — exactly how the demo reuses one wiring for both protocols.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.frames.ipv4 import IPv4Address, ip_for_host
from repro.frames.mac import MAC, mac_for_bridge, mac_for_host
from repro.hosts.host import Host
from repro.hosts.population import HostPopulation
from repro.netsim.engine import Simulator
from repro.netsim.errors import AddressError, TopologyError
from repro.netsim.link import (DEFAULT_BANDWIDTH, DEFAULT_LATENCY,
                               DEFAULT_QUEUE_CAPACITY, Link)
from repro.netsim.node import Node
from repro.switching.base import Bridge

#: A bridge factory builds one bridge: (sim, name, mac) -> Bridge.
BridgeFactory = Callable[[Simulator, str, MAC], Bridge]

#: Sentinel: "keep the detached link's value" (None means infinite
#: bandwidth, so it cannot double as the default).
_KEEP: Any = object()


class Network:
    """A wired simulation: bridges, hosts and named links.

    Typical use::

        sim = Simulator(seed=1)
        net = Network(sim, bridge_factory=arppath_factory())
        net.add_bridges("B1", "B2")
        a = net.add_host("A")
        b = net.add_host("B")
        net.link("B1", "B2", latency=10e-6)
        net.attach("A", "B1")
        net.attach("B", "B2")
        net.start()
    """

    def __init__(self, sim: Simulator,
                 bridge_factory: Optional[BridgeFactory] = None):
        self.sim = sim
        self.bridge_factory = bridge_factory
        self.bridges: Dict[str, Bridge] = {}
        self.hosts: Dict[str, Host] = {}
        self.populations: Dict[str, HostPopulation] = {}
        #: Out-of-band control-plane nodes (the centralized controller):
        #: wired like any node but invisible to fabric oracles.
        self.controllers: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self._bridge_index = 0
        self._host_index = 0
        self._used_macs: set = set()
        self._used_ips: set = set()
        #: (lo, hi) inclusive integer ranges claimed by populations —
        #: a million-endpoint block is two ints, not a million set
        #: entries.
        self._mac_ranges: List[Tuple[int, int]] = []
        self._ip_ranges: List[Tuple[int, int]] = []
        self._started = False
        self._finalized = False
        #: Called with the name of each link about to be created. The
        #: sharded runtime (:mod:`repro.netsim.shard`) installs one that
        #: raises: a link created *after* partitioning (a host migrating
        #: to a bridge on another shard) would be a cut link the plan's
        #: lookahead never accounted for.
        self._link_hook: Optional[Callable[[str], None]] = None

    # -- node creation -----------------------------------------------------

    def add_bridge(self, name: str,
                   factory: Optional[BridgeFactory] = None) -> Bridge:
        """Create a bridge named *name* using *factory* (or the default)."""
        if name in self.bridges or name in self.hosts:
            raise TopologyError(f"duplicate node name: {name}")
        build = factory or self.bridge_factory
        if build is None:
            raise TopologyError(
                "no bridge factory given (pass one to Network or add_bridge)")
        mac = mac_for_bridge(self._bridge_index)
        self._bridge_index += 1
        bridge = build(self.sim, name, mac)
        self._claim_mac(bridge.mac)
        self.bridges[name] = bridge
        return bridge

    def add_bridges(self, *names: str) -> List[Bridge]:
        """Create several bridges at once."""
        return [self.add_bridge(name) for name in names]

    def add_host(self, name: str, ip: Optional[IPv4Address] = None,
                 mac: Optional[MAC] = None, **host_kwargs) -> Host:
        """Create an end host with deterministic addressing."""
        if name in self.bridges or name in self.hosts \
                or name in self.populations:
            raise TopologyError(f"duplicate node name: {name}")
        if mac is None:
            mac = mac_for_host(self._host_index)
        if ip is None:
            ip = ip_for_host(self._host_index)
        self._host_index += 1
        self._claim_mac(mac)
        self._claim_ip(ip)
        host = Host(self.sim, name, mac=mac, ip=ip, **host_kwargs)
        self.hosts[name] = host
        return host

    def add_population(self, name: str, size: int,
                       **population_kwargs) -> HostPopulation:
        """Create a flyweight population of *size* endpoints.

        The population claims a contiguous block of *size* host
        indices, so its endpoints get the same deterministic MAC/IP
        addressing individual hosts would — and a later ``add_host``
        can never collide with them.
        """
        if name in self.bridges or name in self.hosts \
                or name in self.populations:
            raise TopologyError(f"duplicate node name: {name}")
        base_index = self._host_index
        pop = HostPopulation(self.sim, name, size, base_index,
                             **population_kwargs)
        mac_lo = mac_for_host(base_index).value
        mac_hi = mac_for_host(base_index + size - 1).value
        ip_lo = int(ip_for_host(base_index))
        ip_hi = ip_lo + size - 1
        for mac in self._used_macs:
            if mac_lo <= int(mac) <= mac_hi:
                raise AddressError(f"duplicate MAC address: {mac}")
        for ip in self._used_ips:
            if ip_lo <= int(ip) <= ip_hi:
                raise AddressError(f"duplicate IP address: {ip}")
        self._host_index += size
        self._mac_ranges.append((mac_lo, mac_hi))
        self._ip_ranges.append((ip_lo, ip_hi))
        self.populations[name] = pop
        return pop

    def add_out_of_band(self, node: Node) -> Node:
        """Register an out-of-band control-plane node (``out_of_band``
        must be set on its class). Created by a family's
        ``network_finalize`` hook, never by topology functions."""
        name = node.name
        if name in self.bridges or name in self.hosts \
                or name in self.populations or name in self.controllers:
            raise TopologyError(f"duplicate node name: {name}")
        if not node.out_of_band:
            raise TopologyError(
                f"node {name} is not flagged out_of_band")
        self.controllers[name] = node
        return node

    def _claim_mac(self, mac: MAC) -> None:
        value = int(mac)
        if mac in self._used_macs \
                or any(lo <= value <= hi for lo, hi in self._mac_ranges):
            raise AddressError(f"duplicate MAC address: {mac}")
        self._used_macs.add(mac)

    def _claim_ip(self, ip: IPv4Address) -> None:
        value = int(ip)
        if ip in self._used_ips \
                or any(lo <= value <= hi for lo, hi in self._ip_ranges):
            raise AddressError(f"duplicate IP address: {ip}")
        self._used_ips.add(ip)

    # -- wiring ------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a bridge, host, population or controller by name."""
        found = self.bridges.get(name) or self.hosts.get(name) \
            or self.populations.get(name) or self.controllers.get(name)
        if found is None:
            raise TopologyError(f"unknown node: {name}")
        return found

    def link(self, a: str, b: str, latency: float = DEFAULT_LATENCY,
             bandwidth: Optional[float] = DEFAULT_BANDWIDTH,
             queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
             name: Optional[str] = None) -> Link:
        """Wire nodes *a* and *b* with a fresh port on each side.

        The link is registered under *name* (default ``"a-b"``) for
        failure injection and load accounting.
        """
        node_a = self.node(a)
        node_b = self.node(b)
        link_name = name or f"{a}-{b}"
        if link_name in self.links:
            raise TopologyError(f"duplicate link name: {link_name}")
        if self._link_hook is not None:
            self._link_hook(link_name)
        wire = Link(self.sim, node_a.free_port(), node_b.free_port(),
                    latency=latency, bandwidth=bandwidth,
                    queue_capacity=queue_capacity, name=link_name)
        self.links[link_name] = wire
        return wire

    def attach(self, host_name: str, bridge_name: str,
               latency: float = DEFAULT_LATENCY,
               bandwidth: Optional[float] = DEFAULT_BANDWIDTH) -> Link:
        """Wire a host (or population) to a bridge (host links default
        to the same parameters as fabric links)."""
        if host_name not in self.hosts and host_name not in self.populations:
            raise TopologyError(f"unknown host: {host_name}")
        if bridge_name not in self.bridges:
            raise TopologyError(f"unknown bridge: {bridge_name}")
        return self.link(host_name, bridge_name, latency=latency,
                         bandwidth=bandwidth)

    def link_between(self, a: str, b: str) -> Link:
        """The registered link between nodes *a* and *b* (either order)."""
        wire = self.links.get(f"{a}-{b}") or self.links.get(f"{b}-{a}")
        if wire is None:
            raise TopologyError(f"no link between {a} and {b}")
        return wire

    # -- dynamics (churn primitives) ---------------------------------------

    def detach(self, host_name: str) -> str:
        """Unplug a host: carrier drops, the link is unregistered.

        Queued and in-flight frames on the host link are lost (it is a
        cable pull) and both ports become reattachable. Returns the
        name of the bridge the host was attached to.
        """
        host = self.host(host_name)
        wire = host.port.link
        if wire is None:
            raise TopologyError(f"host {host_name} is not attached")
        bridge_name = wire.other(host.port).node.name
        wire.take_down()
        del self.links[wire.name]
        wire.port_a.link = None
        wire.port_b.link = None
        wire.port_a.node.invalidate_port_cache()
        wire.port_b.node.invalidate_port_cache()
        return bridge_name

    def migrate_host(self, host_name: str, bridge_name: str,
                     latency: Optional[float] = None,
                     bandwidth: Optional[float] = _KEEP,
                     announce: bool = True) -> Link:
        """Move a host to another edge bridge (detach + reattach).

        The new access link keeps the old one's latency and bandwidth
        unless overridden — the host moved, its NIC didn't. With
        *announce* (the default on a started network) the host sends a
        gratuitous ARP right after reattaching — what a migrating VM
        does — so the fabric re-learns its location instead of waiting
        for stale paths to fail.
        """
        self.bridge(bridge_name)  # validate before detaching anything
        old = self.host(host_name).port.link
        if old is not None:
            if latency is None:
                latency = old.latency
            if bandwidth is _KEEP:
                bandwidth = old.bandwidth
        if latency is None:
            latency = DEFAULT_LATENCY
        if bandwidth is _KEEP:
            bandwidth = DEFAULT_BANDWIDTH
        self.detach(host_name)
        wire = self.attach(host_name, bridge_name, latency=latency,
                           bandwidth=bandwidth)
        if announce and self._started:
            self.sim.call_soon(self.host(host_name).gratuitous_arp)
        return wire

    def crash_bridge(self, name: str) -> List[str]:
        """Power-fail a bridge: every attached link loses carrier and
        the bridge's periodic processes stop.

        Dynamic state is wiped at :meth:`restart_bridge` time (the
        power cycle), not here — a dead bridge's memory is simply
        unreachable. Returns the names of the links taken down, for a
        matching restart.
        """
        bridge = self.bridge(name)
        affected: List[str] = []
        for link_name, wire in self.links.items():
            if wire.up and (wire.port_a.node is bridge
                            or wire.port_b.node is bridge):
                affected.append(link_name)
        for link_name in affected:
            self.links[link_name].take_down()
        if not bridge.shard_ghost:
            bridge.stop()
        return affected

    def restart_bridge(self, name: str,
                       links: Optional[Iterable[str]] = None) -> None:
        """Power-cycle recovery: wipe dynamic state, restore carrier on
        *links* (default: every still-registered link of the bridge),
        and start the bridge's control plane afresh."""
        bridge = self.bridge(name)
        if not bridge.shard_ghost:
            bridge.stop()  # idempotent; guards a start without a crash
            bridge.reset_state()
        if links is None:
            links = [link_name for link_name, wire in self.links.items()
                     if wire.port_a.node is bridge
                     or wire.port_b.node is bridge]
        for link_name in links:
            wire = self.links.get(link_name)
            if wire is not None:
                wire.bring_up()
        if not bridge.shard_ghost:
            bridge.start()

    def mark_static_roles(self) -> int:
        """Statically classify bridge ports from the wiring (NetFPGA-style).

        Every bridge that supports static roles (``mark_host_port`` /
        ``mark_bridge_port``) gets its ports classified from ground
        truth: ports wired to hosts are host ports, ports wired to
        bridges are bridge ports. Used to run ARP-Path with hellos
        disabled, exactly like the NetFPGA port configuration.
        Returns the number of ports marked.
        """
        marked = 0
        for wire in self.links.values():
            for port, peer in ((wire.port_a, wire.port_b),
                               (wire.port_b, wire.port_a)):
                node = port.node
                if isinstance(peer.node, Bridge):
                    mark = getattr(node, "mark_bridge_port", None)
                else:
                    mark = getattr(node, "mark_host_port", None)
                if isinstance(node, Bridge) and mark is not None:
                    mark(port)
                    marked += 1
        return marked

    # -- lifecycle -----------------------------------------------------------

    def finalize_topology(self) -> None:
        """Run the bridge family's ``network_finalize`` hook (idempotent).

        Families that need network-level wiring beyond per-bridge
        construction — the controller family creates its out-of-band
        node and star links here — attach the hook to their factory
        closure. Called automatically from :meth:`start` and from
        :func:`repro.topology.partition.partition_network`, so both
        single-engine and sharded paths see the finished topology.
        """
        if self._finalized:
            return
        self._finalized = True
        hook = getattr(self.bridge_factory, "network_finalize", None)
        if hook is not None:
            hook(self)

    def start(self) -> None:
        """Start every node (idempotent); call after wiring is complete."""
        self.finalize_topology()
        if self._started:
            return
        self._started = True
        # Shard ghosts (replica nodes owned by another shard) are wired
        # for topology bookkeeping but never started: their control
        # planes run on the owning shard and reach us over the wire.
        for bridge in self.bridges.values():
            if not bridge.shard_ghost:
                bridge.start()
        for host in self.hosts.values():
            if not host.shard_ghost:
                host.start()
        for pop in self.populations.values():
            if not pop.shard_ghost:
                pop.start()
        for controller in self.controllers.values():
            if not controller.shard_ghost:
                controller.start()

    def run(self, duration: float) -> None:
        """Start (if needed) and advance the simulation by *duration*."""
        self.start()
        self.sim.run_for(duration)

    def announce_hosts(self, spacing: float = 0.0,
                       start: float = 0.0) -> int:
        """File a gratuitous ARP from every host as one scheduling batch.

        The bulk-attachment path for size sweeps: when hundreds of
        hosts join a fabric at once, scheduling each announcement
        individually costs n O(log q) heap pushes;
        :meth:`~repro.netsim.engine.Simulator.schedule_bulk` appends
        the whole batch and heapifies once. Hosts announce in name
        order, *spacing* seconds apart from *start* seconds from now.
        Returns the number of announcements scheduled.
        """
        self.start()
        # Ghosts are filtered *after* enumerate so every host keeps the
        # announcement offset it would have in a single-process run.
        specs = [(start + index * spacing, host.gratuitous_arp)
                 for index, (_, host) in enumerate(sorted(self.hosts.items()))
                 if not host.shard_ghost]
        self.sim.schedule_bulk(specs)
        return len(specs)

    # -- queries ---------------------------------------------------------

    def host(self, name: str) -> Host:
        if name not in self.hosts:
            raise TopologyError(f"unknown host: {name}")
        return self.hosts[name]

    def bridge(self, name: str) -> Bridge:
        if name not in self.bridges:
            raise TopologyError(f"unknown bridge: {name}")
        return self.bridges[name]

    def population(self, name: str) -> HostPopulation:
        if name not in self.populations:
            raise TopologyError(f"unknown population: {name}")
        return self.populations[name]

    def endpoint(self, name: str):
        """A traffic endpoint by name: a :class:`Host`, or a population
        endpoint handle for names like ``"H0P#42"``."""
        host = self.hosts.get(name)
        if host is not None:
            return host
        pop_name, sep, index = name.rpartition("#")
        if sep and pop_name in self.populations and index.isdigit():
            try:
                return self.populations[pop_name].endpoint(int(index))
            except IndexError as exc:
                raise TopologyError(str(exc)) from exc
        raise TopologyError(f"unknown endpoint: {name}")

    def endpoint_count(self) -> int:
        """Simulated endpoints: hosts plus population members."""
        return len(self.hosts) + sum(pop.size
                                     for pop in self.populations.values())

    def bridge_for_host(self, host_name: str) -> Bridge:
        """The bridge the named host is attached to."""
        host = self.host(host_name)
        peer = host.port.peer
        if peer is None:
            raise TopologyError(f"host {host_name} is not attached")
        node = peer.node
        if not isinstance(node, Bridge):
            raise TopologyError(f"host {host_name} is not attached to a bridge")
        return node

    def fabric_links(self) -> List[Link]:
        """Links whose both endpoints are bridges (no host links)."""
        return [wire for wire in self.links.values()
                if isinstance(wire.port_a.node, Bridge)
                and isinstance(wire.port_b.node, Bridge)]

    def edges(self) -> List[Tuple[str, str, Link]]:
        """(node_a, node_b, link) for every registered link."""
        return [(wire.port_a.node.name, wire.port_b.node.name, wire)
                for wire in self.links.values()]

    def __repr__(self) -> str:
        extra = (f" populations={len(self.populations)}"
                 if self.populations else "")
        return (f"<Network bridges={len(self.bridges)} "
                f"hosts={len(self.hosts)}{extra} links={len(self.links)}>")

