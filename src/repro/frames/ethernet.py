"""Ethernet II frames.

Frames are the unit of exchange in the simulator. A frame carries a
typed payload object (ARP packet, IPv4 packet, BPDU, ARP-Path control
message or raw bytes) and is never encoded to bytes: a link needs only
its :attr:`EthernetFrame.wire_size`.

Flooded copies race through the network independently — the mechanism
ARP-Path's path discovery exploits — but since PR 5 they are
*copy-on-write*: :meth:`~repro.netsim.node.Port.send` hands the same
frame object to every link (marking it :attr:`EthernetFrame._shared`)
and a private :meth:`EthernetFrame.clone` is taken lazily, only at the
first per-copy mutation (hop recording under ``trace_hops``). Sharing
is sound because ``dst``, ``ethertype`` and the payload's type are
immutable once a frame is in flight (the documented frame invariant)
and the ``_wire_size``/``_kind`` caches are idempotent; the per-copy
``trace`` list is the single mutable field, and it is only touched
behind the lazy clone.

Frames used to be the highest-volume allocation in the simulator (every
flooded copy per port was one), so :class:`EthernetFrame` is a
hand-written ``__slots__`` class rather than a dataclass: no
per-instance ``__dict__``, a :meth:`clone` that fills slots directly,
and a cached classification code (:data:`KIND_ARP_DISCOVERY` /
:data:`KIND_MULTICAST` / :data:`KIND_UNICAST`) shared by all clones so
the dataplane classifies each logical frame once, not once per hop.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Tuple

from repro.frames.arp import ArpPacket
from repro.frames.ipv4 import payload_size
from repro.frames.mac import BROADCAST, MAC, _GROUP_BIT

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
#: IEEE local-experimental ethertype carrying ARP-Path control frames.
ETHERTYPE_ARPPATH = 0x88B5
#: Pseudo ethertype for BPDUs. Real 802.1D BPDUs ride LLC (DSAP 0x42);
#: the simulator models them as an ethertype for uniformity.
ETHERTYPE_BPDU = 0x4242
#: Pseudo ethertype for the SPB baseline's link-state packets.
ETHERTYPE_LSP = 0x88B6
#: Pseudo ethertype for the centralized controller family's control
#: channel (LLDP discovery, packet-in, flow-mod).
ETHERTYPE_CONTROLLER = 0x88B7

#: Destination address of BPDUs (802.1D bridge group address).
STP_MULTICAST = MAC("01:80:c2:00:00:00")

ETH_HEADER_LEN = 14
ETH_FCS_LEN = 4
ETH_MIN_FRAME = 64

#: Frame classification codes cached on the frame (see
#: :meth:`EthernetFrame.kind`): a multicast ARP probe, any other
#: broadcast/multicast frame, or unicast.
KIND_ARP_DISCOVERY = 1
KIND_MULTICAST = 2
KIND_UNICAST = 3

_uid_counter = itertools.count(1)

_ETHERTYPE_NAMES = {
    ETHERTYPE_IPV4: "IPv4",
    ETHERTYPE_ARP: "ARP",
    ETHERTYPE_ARPPATH: "ARP-Path",
    ETHERTYPE_BPDU: "BPDU",
    ETHERTYPE_LSP: "LSP",
    ETHERTYPE_CONTROLLER: "CTRL",
}

#: A hop record appended to a frame's trace: (node_name, port_index, time).
Hop = Tuple[str, int, float]


class EthernetFrame:
    """An Ethernet II frame with a typed payload.

    ``uid``
        Identifies the *logical* frame; clones made while flooding share
        the uid, which lets the tracer correlate the copies of one
        broadcast race.
    ``trace``
        Hop records appended at each node when tracing is enabled; each
        clone carries its own list, so a delivered copy's trace is the
        exact path it travelled.
    ``_shared``
        Copy-on-write marker: set by ``Port.send`` when the object goes
        on the wire (possibly out of several ports at once). A receiver
        that needs to mutate the frame (hop tracing) must clone first;
        the clone is private until it is sent again.
    """

    __slots__ = ("dst", "src", "ethertype", "payload", "uid", "trace",
                 "_wire_size", "_kind", "_shared")

    def __init__(self, dst: MAC, src: MAC, ethertype: int,
                 payload: Any = b"", uid: Optional[int] = None,
                 trace: Optional[List[Hop]] = None,
                 _wire_size: Optional[int] = None):
        self.dst = dst
        self.src = src
        self.ethertype = ethertype
        self.payload = payload
        self.uid = next(_uid_counter) if uid is None else uid
        self.trace = [] if trace is None else trace
        #: Cached on-wire size; payloads are immutable once attached, so
        #: the size is computed once and shared with clones.
        self._wire_size = _wire_size
        self._kind: Optional[int] = None
        self._shared = False

    @property
    def wire_size(self) -> int:
        """Total on-wire size: header + payload + FCS, zero-padded to 64."""
        size = self._wire_size
        if size is None:
            size = max(ETH_HEADER_LEN + payload_size(self.payload)
                       + ETH_FCS_LEN, ETH_MIN_FRAME)
            self._wire_size = size
        return size

    def kind(self) -> int:
        """This frame's interned classification code.

        Computed once per logical frame (clones inherit the cache):
        :data:`KIND_ARP_DISCOVERY` for multicast ARP probes,
        :data:`KIND_MULTICAST` for other group-addressed frames,
        :data:`KIND_UNICAST` otherwise. Sound because ``dst``,
        ``ethertype`` and the payload type never change once the frame
        is in flight.
        """
        code = self._kind
        if code is None:
            if self.dst._value & _GROUP_BIT:
                if self.ethertype == ETHERTYPE_ARP \
                        and isinstance(self.payload, ArpPacket):
                    code = KIND_ARP_DISCOVERY
                else:
                    code = KIND_MULTICAST
            else:
                code = KIND_UNICAST
            self._kind = code
        return code

    @property
    def is_broadcast(self) -> bool:
        return self.dst.is_broadcast

    @property
    def is_multicast(self) -> bool:
        return self.dst.is_multicast

    @property
    def is_unicast(self) -> bool:
        return self.dst.is_unicast

    def clone(self) -> "EthernetFrame":
        """A copy with the same uid and an independent trace list.

        The payload object is shared: payloads are treated as immutable
        once attached to a frame. The copy is private (not ``_shared``)
        until it is sent again.
        """
        copy = EthernetFrame.__new__(EthernetFrame)
        copy.dst = self.dst
        copy.src = self.src
        copy.ethertype = self.ethertype
        copy.payload = self.payload
        copy.uid = self.uid
        copy.trace = self.trace[:]
        copy._wire_size = self._wire_size
        copy._kind = self._kind
        copy._shared = False
        return copy

    def with_payload(self, payload: Any) -> "EthernetFrame":
        """A copy (same uid/trace) carrying a different payload.

        Used when relaying control frames whose hop budget must be
        decremented without breaking trace continuity.
        """
        return EthernetFrame(dst=self.dst, src=self.src,
                             ethertype=self.ethertype, payload=payload,
                             uid=self.uid, trace=list(self.trace))

    def record_hop(self, node_name: str, port_index: int, time: float) -> None:
        """Append a hop record (used by nodes when tracing is enabled)."""
        self.trace.append((node_name, port_index, time))

    def path_nodes(self) -> List[str]:
        """The node names along this copy's recorded trace, in order."""
        return [hop[0] for hop in self.trace]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EthernetFrame):
            return NotImplemented
        return (self.dst == other.dst and self.src == other.src
                and self.ethertype == other.ethertype
                and self.payload == other.payload
                and self.uid == other.uid and self.trace == other.trace)

    def __repr__(self) -> str:
        return (f"EthernetFrame(dst={self.dst!r}, src={self.src!r}, "
                f"ethertype={self.ethertype!r}, payload={self.payload!r}, "
                f"uid={self.uid!r}, trace={self.trace!r})")

    def __str__(self) -> str:
        kind = _ETHERTYPE_NAMES.get(self.ethertype,
                                    f"0x{self.ethertype:04x}")
        return (f"[{kind}] {self.src} -> {self.dst} "
                f"({self.wire_size}B uid={self.uid})")


def broadcast_frame(src: MAC, ethertype: int, payload: Any) -> EthernetFrame:
    """Convenience constructor for a broadcast frame."""
    return EthernetFrame(dst=BROADCAST, src=src, ethertype=ethertype,
                         payload=payload)
