"""Link-state messages for the shortest-path bridging baseline.

The paper's introduction contrasts ARP-Path with SPB (802.1aq) and
TRILL, which "rely on a link-state routing protocol operating at layer
two". This package implements that style of control plane so the
complexity comparison is measurable: hellos for adjacency discovery and
flooded link-state packets carrying adjacencies plus attached hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

from repro.frames.mac import MAC

#: Link-local multicast address for SPB control frames.
SPB_MULTICAST = MAC("01:80:c2:00:00:10")

HELLO_WIRE_SIZE = 10
LSP_FIXED_SIZE = 14
LSP_NEIGHBOR_SIZE = 10
LSP_HOST_SIZE = 6


@dataclass(frozen=True)
class SpbHello:
    """A link-local adjacency hello."""

    origin: MAC
    seq: int

    #: A class constant, not a field: every hello is the same size.
    wire_size = HELLO_WIRE_SIZE


@dataclass(frozen=True)
class Adjacency:
    """One reported bridge-to-bridge adjacency."""

    neighbor: MAC
    cost: float = 1.0

    def __post_init__(self):
        if self.cost <= 0:
            raise ValueError(f"adjacency cost must be positive: {self.cost}")


@dataclass(frozen=True)
class LinkStatePacket:
    """One bridge's view of itself: adjacencies and attached hosts.

    ``seq`` orders packets from the same origin; receivers keep only the
    newest. Costs are *administrative* (hop count by default) — a
    link-state control plane has no knowledge of actual queueing or
    propagation latency, which is precisely the gap the ARP-Path race
    exploits.

    ``host_values`` is the set of the hosts' integer values, filled once
    at construction so "does this LSP advertise host H?" is one int hash
    instead of a scan of ``hosts``; ``wire_size`` is filled there too,
    since an LSP is flooded once per bridge port it crosses. Neither is
    part of ``==``, ``hash`` or ``repr``.
    """

    origin: MAC
    seq: int
    adjacencies: Tuple[Adjacency, ...] = ()
    hosts: Tuple[MAC, ...] = ()
    host_values: FrozenSet[int] = field(init=False, repr=False,
                                        compare=False)
    wire_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.seq < 0:
            raise ValueError("LSP sequence must be non-negative")
        object.__setattr__(self, "host_values",
                           frozenset(mac._value for mac in self.hosts))
        object.__setattr__(self, "wire_size", (
            LSP_FIXED_SIZE + LSP_NEIGHBOR_SIZE * len(self.adjacencies)
            + LSP_HOST_SIZE * len(self.hosts)))

    def newer_than(self, other: "LinkStatePacket") -> bool:
        """True when this packet supersedes *other* (same origin)."""
        return self.seq > other.seq

    def __str__(self) -> str:
        return (f"LSP origin={self.origin} seq={self.seq} "
                f"adj={len(self.adjacencies)} hosts={len(self.hosts)}")
