"""UDP datagrams for the simulated IP stack."""

from __future__ import annotations

from typing import Any

from repro.frames.ipv4 import payload_size

UDP_HEADER_LEN = 8


class UdpDatagram:
    """A UDP datagram carrying an application payload.

    The payload may be raw ``bytes`` or any object exposing
    ``wire_size`` (e.g. a :class:`repro.traffic.video.VideoChunk`).
    ``wire_size``, header plus payload bytes, is fixed at
    construction. A hand-written ``__slots__`` class, one per stream
    chunk: as a dataclass its port check and its size would cost a
    ``__post_init__`` call on every packet.
    """

    __slots__ = ("sport", "dport", "payload", "wire_size")

    def __init__(self, sport: int, dport: int, payload: Any = b""):
        if not 0 <= sport <= 0xFFFF:
            raise ValueError(f"UDP port out of range: {sport}")
        if not 0 <= dport <= 0xFFFF:
            raise ValueError(f"UDP port out of range: {dport}")
        self.sport = sport
        self.dport = dport
        self.payload = payload
        try:
            self.wire_size = UDP_HEADER_LEN + payload.wire_size
        except AttributeError:
            self.wire_size = UDP_HEADER_LEN + payload_size(payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UdpDatagram):
            return NotImplemented
        return (self.sport == other.sport and self.dport == other.dport
                and self.payload == other.payload)

    def __repr__(self) -> str:
        return (f"UdpDatagram(sport={self.sport!r}, dport={self.dport!r}, "
                f"payload={self.payload!r})")

    def __str__(self) -> str:
        return f"UDP {self.sport}->{self.dport} ({self.wire_size}B)"
