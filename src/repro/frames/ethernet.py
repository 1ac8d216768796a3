"""Ethernet II frames.

Frames are the unit of exchange in the simulator. A frame carries a
typed payload object (ARP packet, IPv4 packet, BPDU, ARP-Path control
message or raw bytes) and is never encoded to bytes: a link needs only
its :attr:`EthernetFrame.wire_size`.

The frame invariant: a frame is never mutated once sent; the idempotent
``_kind`` cache is the only exception. So flooded
copies — which race through the network independently, the mechanism
ARP-Path's path discovery exploits — are one shared object:
:meth:`~repro.netsim.node.Port.send` hands the same frame to every
link, and a sharded run hands it across the cut by reference. The path
a copy travelled is rebuilt from the links' records
(:class:`repro.metrics.paths.PathObserver`), never stamped on it.

Every type in this package is slotted, so none carries a
``__dict__``. The payloads are dataclasses (``slots=True``, frozen
when immutable); :class:`EthernetFrame`,
:class:`~repro.frames.mac.MAC`, :class:`~repro.frames.ipv4.IPv4Address`
and :class:`~repro.frames.udp.UdpDatagram` stay hand-written
``__slots__`` classes, each for the reason its docstring gives. The
frame caches a classification code (:data:`KIND_ARP_DISCOVERY` /
:data:`KIND_MULTICAST` / :data:`KIND_UNICAST`) so the dataplane
classifies each logical frame once, not once per hop.

Wire size is fixed at construction, layer by layer: a payload that
carries another (:class:`~repro.frames.ipv4.IPv4Packet`,
:class:`~repro.frames.udp.UdpDatagram`) stores its ``wire_size`` as a
plain attribute when it is built, reading its own payload's once, and
so does the frame. A link reads one attribute per transmit, and a
datagram is sized once however many hops it crosses.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.frames.arp import ArpPacket
from repro.frames.ipv4 import payload_size
from repro.frames.mac import MAC, _GROUP_BIT

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


class EthernetFrame:
    """An Ethernet II frame with a typed payload.

    ``uid``
        Identifies the *logical* frame: every copy of a flood is the
        same object, and a relay that rewrites the payload
        (:meth:`with_payload`) keeps the uid, which lets a listener
        correlate the copies of one broadcast race and follow a frame
        hop by hop.

    ``wire_size``
        Total on-wire size: header + payload + FCS, zero-padded to 64
        bytes. Fixed here: a payload never changes once attached.

    Hand-written, not a dataclass: the uid counter, the size and the
    kind cache sit in one per-frame constructor.
    """

    __slots__ = ("dst", "src", "ethertype", "payload", "uid", "wire_size",
                 "_kind")

    def __init__(self, dst: MAC, src: MAC, ethertype: int,
                 payload: Any = b"", uid: Optional[int] = None):
        self.dst = dst
        self.src = src
        self.ethertype = ethertype
        self.payload = payload
        self.uid = next(_uid_counter) if uid is None else uid
        try:
            size = payload.wire_size + ETH_HEADER_LEN + ETH_FCS_LEN
        except AttributeError:
            size = payload_size(payload) + ETH_HEADER_LEN + ETH_FCS_LEN
        self.wire_size = size if size > ETH_MIN_FRAME else ETH_MIN_FRAME
        self._kind: Optional[int] = None

    def kind(self) -> int:
        """This frame's interned classification code.

        Computed once per frame object:
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

    def with_payload(self, payload: Any) -> "EthernetFrame":
        """A new frame (same uid) carrying a different payload.

        Used when relaying control frames whose hop budget must be
        decremented without breaking the frame's identity.
        """
        return EthernetFrame(dst=self.dst, src=self.src,
                             ethertype=self.ethertype, payload=payload,
                             uid=self.uid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EthernetFrame):
            return NotImplemented
        return (self.dst == other.dst and self.src == other.src
                and self.ethertype == other.ethertype
                and self.payload == other.payload
                and self.uid == other.uid)

    def __repr__(self) -> str:
        return (f"EthernetFrame(dst={self.dst!r}, src={self.src!r}, "
                f"ethertype={self.ethertype!r}, payload={self.payload!r}, "
                f"uid={self.uid!r})")

    def __str__(self) -> str:
        kind = _ETHERTYPE_NAMES.get(self.ethertype,
                                    f"0x{self.ethertype:04x}")
        return (f"[{kind}] {self.src} -> {self.dst} "
                f"({self.wire_size}B uid={self.uid})")
