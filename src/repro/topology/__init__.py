"""Topology construction: the network builder, protocol factories and a
library of ready-made wirings (including the paper's NetFPGA demo)."""

from repro.topology.builder import BridgeFactory, Network
from repro.topology.factories import (PROTOCOLS, arppath, controller,
                                      factory_for, learning, spb, stp,
                                      stp_scaled)
from repro.topology.library import (CHURN_TOPOLOGIES, DemoParams, FAST_LINK,
                                    HOST_LINK, LOOP_FREE_TOPOLOGIES,
                                    SLOW_LINK, churn_topology, fat_tree,
                                    grid, line, netfpga_demo, pair,
                                    random_graph, ring)
from repro.topology.loader import from_json, from_spec

__all__ = [
    "BridgeFactory", "Network", "from_json", "from_spec",
    "PROTOCOLS", "arppath", "controller", "factory_for", "learning",
    "spb", "stp", "stp_scaled",
    "CHURN_TOPOLOGIES", "DemoParams", "FAST_LINK", "HOST_LINK",
    "LOOP_FREE_TOPOLOGIES", "SLOW_LINK", "churn_topology", "fat_tree",
    "grid", "line", "netfpga_demo", "pair", "random_graph", "ring",
]
