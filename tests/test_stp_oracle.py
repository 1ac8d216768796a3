"""An independent oracle for the spanning tree STP converges to.

``networkx`` over ``repro.testing.graph_of(net)`` knows nothing of BPDUs:
after convergence — and again after a cut and after its restore — in
every connected component of the live fabric the root is the lowest
``BridgeId``, every bridge's ``root_cost`` is ``PATH_COST_1G`` times its
hop distance to that root, and the links FORWARDING at both ends form
a spanning tree (``n - 1`` edges, connected).
"""

import random

import networkx as nx
import pytest

from repro.netsim.engine import Simulator
from repro.stp import PATH_COST_1G, PortState
from repro.testing import graph_of
from repro.topology import (FAST_LINK, fat_tree, grid, line, netfpga_demo,
                            pair, random_graph, ring, stp_scaled)

#: x0.1 timers: max-age expiry (2 s) plus listening + learning (3 s).
SETTLE = 8.0


def _jitter(seed, n):
    rng = random.Random(seed)
    return [FAST_LINK * (1 + rng.random()) for _ in range(n)]


WIRINGS = {
    "pair": lambda sim, f, seed: pair(sim, f, latency=_jitter(seed, 1)[0]),
    "line": lambda sim, f, seed: line(sim, f, 4, latency=_jitter(seed, 1)[0]),
    "ring": lambda sim, f, seed: ring(sim, f, 5, latencies=_jitter(seed, 5)),
    "grid": lambda sim, f, seed: grid(sim, f, 3, 3, seed=seed,
                                      latency_jitter=FAST_LINK),
    "fat_tree": lambda sim, f, seed: fat_tree(sim, f, pods=4, seed=seed),
    "random": lambda sim, f, seed: random_graph(sim, f, 8, seed=seed),
    "demo": lambda sim, f, seed: netfpga_demo(sim, f),
}


def assert_tree_matches_oracle(net):
    fabric = graph_of(net, fabric_only=True)
    fabric.add_nodes_from(net.bridges)           # a cut may isolate one
    for names in nx.connected_components(fabric):
        root = min((net.bridge(name) for name in names),
                   key=lambda bridge: bridge.bid)
        hops = nx.shortest_path_length(fabric.subgraph(names), root.name)
        tree = nx.Graph()
        tree.add_nodes_from(names)
        for a, b, link in fabric.subgraph(names).edges(data="link"):
            wire = net.links[link]
            if all(port.node.port_state(port) is PortState.FORWARDING
                   for port in (wire.port_a, wire.port_b)):
                tree.add_edge(a, b)
        for name in names:
            bridge = net.bridge(name)
            assert bridge.root_id == root.bid, name
            assert bridge.root_cost == PATH_COST_1G * hops[name], name
        assert tree.number_of_edges() == len(names) - 1
        assert nx.is_connected(tree)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("wiring", sorted(WIRINGS))
def test_converged_tree_is_the_oracles(wiring, seed):
    net = WIRINGS[wiring](Simulator(seed=seed), stp_scaled(0.1), seed)
    net.run(SETTLE)
    assert_tree_matches_oracle(net)

    cut = random.Random(seed).choice(
        sorted(wire.name for wire in net.fabric_links()))
    net.links[cut].take_down()
    net.run(SETTLE)
    assert_tree_matches_oracle(net)

    net.links[cut].bring_up()
    net.run(SETTLE)
    assert_tree_matches_oracle(net)
