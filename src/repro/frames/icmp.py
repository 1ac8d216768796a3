"""ICMP echo messages (ping) for the simulated IP stack.

The demo's latency graphs are driven by ping-style probes; the host
stack implements echo request/reply with these messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frames.ipv4 import payload_size

TYPE_ECHO_REPLY = 0
TYPE_ECHO_REQUEST = 8

ICMP_HEADER_LEN = 8


@dataclass(frozen=True, slots=True)
class IcmpEcho:
    """An ICMP echo request or reply (a frozen value type)."""

    icmp_type: int
    ident: int
    seq: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.icmp_type not in (TYPE_ECHO_REQUEST, TYPE_ECHO_REPLY):
            raise ValueError(f"unsupported ICMP type {self.icmp_type}")
        if not 0 <= self.ident <= 0xFFFF:
            raise ValueError(f"ICMP ident out of range: {self.ident}")
        if not 0 <= self.seq <= 0xFFFF:
            raise ValueError(f"ICMP seq out of range: {self.seq}")

    @property
    def is_request(self) -> bool:
        return self.icmp_type == TYPE_ECHO_REQUEST

    @property
    def wire_size(self) -> int:
        return ICMP_HEADER_LEN + payload_size(self.payload)

    def reply(self) -> "IcmpEcho":
        """The echo reply matching this request."""
        if not self.is_request:
            raise ValueError("can only reply to an echo request")
        return IcmpEcho(icmp_type=TYPE_ECHO_REPLY, ident=self.ident,
                        seq=self.seq, payload=self.payload)


def make_echo_request(ident: int, seq: int, payload: bytes = b"") -> IcmpEcho:
    """An echo request with the given identifier and sequence number."""
    return IcmpEcho(icmp_type=TYPE_ECHO_REQUEST, ident=ident, seq=seq,
                    payload=payload)
