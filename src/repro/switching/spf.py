"""Shortest-path trees with lowest-MAC tie-breaking.

The one Dijkstra the link-state families share: SPB bridges run it over
their LSDB and the controller over its global graph. Ties between
equal-cost parents go to the lowest MAC, so every node that runs it
over the same graph computes the same tree for a given root — the
property SPB relies on for congruent unicast and multicast paths
(802.1aq's ECT tie-breaking).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.frames.mac import MAC

#: Node -> ``[(neighbor, cost), ...]``, each list sorted by neighbor MAC
#: value.
Graph = Mapping[MAC, Sequence[Tuple[MAC, float]]]


class ShortestPathTree(NamedTuple):
    """Distance and tree parent (None at the root) per reachable node."""

    dist: Dict[MAC, float]
    parent: Dict[MAC, Optional[MAC]]


def shortest_path_tree(root: MAC, graph: Graph) -> ShortestPathTree:
    """Dijkstra from *root* over *graph*, lowest-MAC tie-broken."""
    dist: Dict[MAC, float] = {root: 0.0}
    parent: Dict[MAC, Optional[MAC]] = {root: None}
    # Heap entries: (distance, node MAC value, node) — the MAC value
    # makes pops deterministic; parents are chosen lowest-MAC-first.
    heap: List[Tuple[float, int, MAC]] = [(0.0, root.value, root)]
    done: Set[MAC] = set()
    while heap:
        d, _tie, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for neighbor, cost in graph.get(node, ()):
            nd = d + cost
            old = dist.get(neighbor)
            better = old is None or nd < old
            same_but_lower = (old is not None and nd == old
                              and parent[neighbor] is not None
                              and node.value < parent[neighbor].value)
            if better or same_but_lower:
                dist[neighbor] = nd
                parent[neighbor] = node
                heapq.heappush(heap, (nd, neighbor.value, neighbor))
    return ShortestPathTree(dist, parent)
