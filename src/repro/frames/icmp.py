"""ICMP echo messages (ping) for the simulated IP stack.

The demo's latency graphs are driven by ping-style probes; the host
stack implements echo request/reply with these messages.
"""

from __future__ import annotations

from repro.frames.ipv4 import payload_size

TYPE_ECHO_REPLY = 0
TYPE_ECHO_REQUEST = 8

ICMP_HEADER_LEN = 8


class IcmpEcho:
    """An ICMP echo request or reply (a ``__slots__`` value type)."""

    __slots__ = ("icmp_type", "ident", "seq", "payload")

    def __init__(self, icmp_type: int, ident: int, seq: int,
                 payload: bytes = b""):
        if icmp_type not in (TYPE_ECHO_REQUEST, TYPE_ECHO_REPLY):
            raise ValueError(f"unsupported ICMP type {icmp_type}")
        if not 0 <= ident <= 0xFFFF:
            raise ValueError(f"ICMP ident out of range: {ident}")
        if not 0 <= seq <= 0xFFFF:
            raise ValueError(f"ICMP seq out of range: {seq}")
        set_field = object.__setattr__
        set_field(self, "icmp_type", icmp_type)
        set_field(self, "ident", ident)
        set_field(self, "seq", seq)
        set_field(self, "payload", payload)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"IcmpEcho is immutable (tried to set {name!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IcmpEcho):
            return NotImplemented
        return (self.icmp_type == other.icmp_type
                and self.ident == other.ident and self.seq == other.seq
                and self.payload == other.payload)

    def __hash__(self) -> int:
        return hash((self.icmp_type, self.ident, self.seq, self.payload))

    def __repr__(self) -> str:
        return (f"IcmpEcho(icmp_type={self.icmp_type!r}, "
                f"ident={self.ident!r}, seq={self.seq!r}, "
                f"payload={self.payload!r})")

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
