"""ARP packets (RFC 826) for IPv4 over Ethernet.

ARP is the heart of the reproduced protocol: ARP-Path bridges treat the
broadcast ARP Request as the path-discovery probe and the unicast ARP
Reply as the path-confirmation message (paper §2.1.1-2.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frames.ipv4 import IPv4Address
from repro.frames.mac import MAC, ZERO

OP_REQUEST = 1
OP_REPLY = 2

ARP_WIRE_SIZE = 28


@dataclass(frozen=True, slots=True)
class ArpPacket:
    """An ARP request or reply for IPv4-over-Ethernet.

    Field names follow RFC 826: *sha/spa* are the sender hardware and
    protocol addresses, *tha/tpa* the target ones. A frozen value type
    without a ``__dict__``: ARP packets ride every discovery race, so
    they are allocated in bulk.
    """

    op: int
    sha: MAC
    spa: IPv4Address
    tha: MAC
    tpa: IPv4Address

    def __post_init__(self) -> None:
        if self.op not in (OP_REQUEST, OP_REPLY):
            raise ValueError(f"unknown ARP op {self.op}")

    @property
    def is_request(self) -> bool:
        return self.op == OP_REQUEST

    #: A class constant, not a field: every ARP packet is the same size.
    wire_size = ARP_WIRE_SIZE

    def __str__(self) -> str:
        if self.is_request:
            return f"ARP who-has {self.tpa} tell {self.spa} ({self.sha})"
        return f"ARP {self.spa} is-at {self.sha} (to {self.tpa})"


def make_request(sender_mac: MAC, sender_ip: IPv4Address,
                 target_ip: IPv4Address) -> ArpPacket:
    """The broadcast ARP Request a host emits to resolve *target_ip*."""
    return ArpPacket(op=OP_REQUEST, sha=sender_mac, spa=sender_ip,
                     tha=ZERO, tpa=target_ip)


def make_reply(sender_mac: MAC, sender_ip: IPv4Address,
               target_mac: MAC, target_ip: IPv4Address) -> ArpPacket:
    """The unicast ARP Reply answering a request."""
    return ArpPacket(op=OP_REPLY, sha=sender_mac, spa=sender_ip,
                     tha=target_mac, tpa=target_ip)


def make_gratuitous(sender_mac: MAC, sender_ip: IPv4Address) -> ArpPacket:
    """A gratuitous ARP announcing *sender_ip* is at *sender_mac*."""
    return ArpPacket(op=OP_REQUEST, sha=sender_mac, spa=sender_ip,
                     tha=ZERO, tpa=sender_ip)
