"""Link load accounting (paper §2.2: load distribution, path diversity).

Read from each fabric link's bytes-sent registers, both directions
(:meth:`Link.bytes_sent`; ``tracer.reset()`` opens the window): how
evenly traffic spreads over the fabric, and how many links carry any
traffic at all (a spanning tree leaves its blocked links at exactly
zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.metrics.stats import coefficient_of_variation, mean
from repro.topology.builder import Network


@dataclass(frozen=True)
class LoadReport:
    """Per-link load spread over the bridge-to-bridge fabric."""

    per_link: Dict[str, int]
    used_links: int
    total_links: int
    cv: float
    max_over_mean: float
    total_bytes: int


def fabric_load(net: Network, ethertype: Optional[int] = None) -> LoadReport:
    """Bytes carried per fabric link, with spread statistics.

    *ethertype* restricts the count (e.g. only IPv4 data); None counts
    everything.
    """
    per_link = {link.name: link.bytes_sent(ethertype)
                for link in net.fabric_links()}
    loads = list(per_link.values())
    total = sum(loads)
    used = sum(1 for b in loads if b > 0)
    if loads and total > 0:
        cv = coefficient_of_variation(loads)
        max_over_mean = max(loads) / mean(loads)
    else:
        cv = 0.0
        max_over_mean = 0.0
    return LoadReport(per_link=per_link, used_links=used,
                      total_links=len(per_link), cv=cv,
                      max_over_mean=max_over_mean, total_bytes=total)
