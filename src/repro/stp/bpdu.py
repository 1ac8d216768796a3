"""802.1D bridge/port identifiers and BPDUs.

The demo's baseline runs classic Spanning Tree (Linux ``bridge_utils``
is an 802.1D implementation). This module models the protocol's
identifiers and the two BPDU types with the standard comparison rules:
lower is better, compared as (root id, root path cost, transmitting
bridge id, transmitting port id).

Every comparison the bridge makes is a comparison of ``key`` tuples:
identifiers, vectors and config BPDUs are frozen, so each fills its
``key`` — plain ints, nested in comparison order — once at construction
and ``<`` / "is this the vector I already hold?" are one tuple compare
with no object built (``functools.cached_property`` costs more per read
than the tuple build it saves on CPython 3.11).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from repro.frames.mac import MAC

#: Default bridge priority (802.1D-2004 table 17-2).
DEFAULT_BRIDGE_PRIORITY = 0x8000
#: Default port priority.
DEFAULT_PORT_PRIORITY = 0x80
#: 802.1D-1998 path cost for a 1 Gb/s link (the NetFPGA line rate).
PATH_COST_1G = 4

CONFIG_BPDU_WIRE_SIZE = 35
TCN_BPDU_WIRE_SIZE = 4


@functools.total_ordering
@dataclass(frozen=True)
class BridgeId:
    """A (priority, MAC) bridge identifier; lower wins root election."""

    priority: int
    mac: MAC
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.priority <= 0xFFFF:
            raise ValueError(f"bridge priority out of range: {self.priority}")
        object.__setattr__(self, "key", (self.priority, self.mac.value))

    def __lt__(self, other: "BridgeId") -> bool:
        return self.key < other.key

    def __str__(self) -> str:
        return f"{self.priority:04x}.{self.mac}"


@functools.total_ordering
@dataclass(frozen=True)
class PortId:
    """A (priority, port number) port identifier."""

    priority: int
    number: int
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.priority <= 0xFF:
            raise ValueError(f"port priority out of range: {self.priority}")
        if self.number < 0:
            raise ValueError(f"negative port number: {self.number}")
        object.__setattr__(self, "key", (self.priority, self.number))

    def __lt__(self, other: "PortId") -> bool:
        return self.key < other.key

    def __str__(self) -> str:
        return f"{self.priority:02x}.{self.number}"


@functools.total_ordering
@dataclass(frozen=True)
class PriorityVector:
    """The spanning tree priority vector carried by config BPDUs.

    Lower compares better; the total order drives both root election
    and designated-bridge selection on each LAN.
    """

    root: BridgeId
    cost: int
    bridge: BridgeId
    port: PortId
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", (
            self.root.key, self.cost, self.bridge.key, self.port.key))

    def __lt__(self, other: "PriorityVector") -> bool:
        return self.key < other.key

    def through(self, link_cost: int) -> "PriorityVector":
        """The vector as seen after crossing a link of *link_cost*."""
        return replace(self, cost=self.cost + link_cost)


@dataclass(frozen=True)
class ConfigBpdu:
    """An 802.1D configuration BPDU."""

    root: BridgeId
    cost: int
    bridge: BridgeId
    port: PortId
    message_age: float = 0.0
    max_age: float = 20.0
    hello_time: float = 2.0
    forward_delay: float = 15.0
    topology_change: bool = False
    topology_change_ack: bool = False
    #: The carried priority vector's key. Two BPDUs with equal keys
    #: differ only in what a *refresh* updates: message age, timers
    #: and the TC / TCA flags.
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", (
            self.root.key, self.cost, self.bridge.key, self.port.key))

    @property
    def wire_size(self) -> int:
        return CONFIG_BPDU_WIRE_SIZE

    @property
    def vector(self) -> PriorityVector:
        return PriorityVector(root=self.root, cost=self.cost,
                              bridge=self.bridge, port=self.port)

    def __str__(self) -> str:
        flags = ""
        if self.topology_change:
            flags += " TC"
        if self.topology_change_ack:
            flags += " TCA"
        return (f"BPDU root={self.root} cost={self.cost} "
                f"bridge={self.bridge} port={self.port} "
                f"age={self.message_age:.1f}{flags}")


@dataclass(frozen=True)
class TcnBpdu:
    """A topology change notification BPDU."""

    bridge: BridgeId

    @property
    def wire_size(self) -> int:
        return TCN_BPDU_WIRE_SIZE

    def __str__(self) -> str:
        return f"TCN from {self.bridge}"
