"""ARP-Path (FastPath) low-latency transparent bridges.

A full reproduction of *"Implementing ARP-Path Low Latency Bridges in
NetFPGA"* (Rojas et al., SIGCOMM 2011 demo): the ARP-Path protocol, the
802.1D and link-state baselines it is compared against, a deterministic
discrete-event Ethernet simulator standing in for the NetFPGA hardware,
and the workloads, failure injection and measurement needed to
regenerate the demo's results.

Quick start::

    from repro import Simulator, netfpga_demo, arppath

    sim = Simulator(seed=1)
    net = netfpga_demo(sim, arppath())
    net.run(5.0)                       # control plane settles
    a, b = net.host("A"), net.host("B")
    a.ping(b.ip, on_reply=lambda seq, rtt: print(f"rtt={rtt*1e6:.1f}us"))
    sim.run_for(1.0)

See README.md for the scenarios and their commands, and
docs/ARCHITECTURE.md for the design and its invariants.
"""

from repro.core import (ArpPathBridge, ArpPathConfig, DEFAULT_CONFIG,
                        EntryState, LockedAddressTable)
from repro.hosts import Host
from repro.netsim import Link, Node, Port, Simulator
from repro.spb import SpbBridge
from repro.stp import StpBridge, StpTimers
from repro.switching import LearningSwitch
from repro.topology import (Network, arppath, fat_tree, grid, learning, line,
                            netfpga_demo, pair, random_graph, ring, spb, stp,
                            stp_scaled)

__version__ = "1.0.0"

__all__ = [
    "ArpPathBridge", "ArpPathConfig", "DEFAULT_CONFIG", "EntryState",
    "LockedAddressTable",
    "Host",
    "Link", "Node", "Port", "Simulator",
    "SpbBridge",
    "StpBridge", "StpTimers",
    "LearningSwitch",
    "Network", "arppath", "fat_tree", "grid", "learning",
    "line", "netfpga_demo", "pair", "random_graph", "ring", "spb", "stp",
    "stp_scaled",
    "__version__",
]
