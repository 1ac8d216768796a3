"""Minimal IPv4 model: addresses and packets.

Only the pieces the reproduction needs — addressing, protocol numbers,
TTL handling — are modelled; options, fragmentation and checksums are
intentionally out of scope (the simulator never corrupts frames).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

_MAX = (1 << 32) - 1

# IP protocol numbers used by the stack.
PROTO_ICMP = 1
PROTO_UDP = 17

DEFAULT_TTL = 64

IPV4_HEADER_LEN = 20


class IPv4Address:
    """An immutable IPv4 address (dotted quad or 32-bit integer).

    Hand-written, not a dataclass: it parses its input and hashes as
    the raw 32-bit int.

    >>> str(IPv4Address("10.0.0.1"))
    '10.0.0.1'
    """

    __slots__ = ("_value",)

    def __init__(self, value: "int | str | bytes | IPv4Address"):
        if isinstance(value, IPv4Address):
            self._value = value._value
            return
        if isinstance(value, int):
            if not 0 <= value <= _MAX:
                raise ValueError(f"IPv4 integer out of range: {value:#x}")
            self._value = value
            return
        if isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise ValueError(f"IPv4 needs exactly 4 bytes, got {len(value)}")
            self._value = int.from_bytes(bytes(value), "big")
            return
        if isinstance(value, str):
            parts = value.strip().split(".")
            if len(parts) != 4:
                raise ValueError(f"not an IPv4 address: {value!r}")
            octets = []
            for part in parts:
                if not part.isdigit():
                    raise ValueError(f"not an IPv4 address: {value!r}")
                octet = int(part)
                if octet > 255:
                    raise ValueError(f"octet out of range in {value!r}")
                octets.append(octet)
            self._value = int.from_bytes(bytes(octets), "big")
            return
        raise TypeError(f"cannot build IPv4Address from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The address as a 32-bit integer."""
        return self._value

    @property
    def is_multicast(self) -> bool:
        """True for 224.0.0.0/4."""
        return (self._value >> 28) == 0xE

    @property
    def is_broadcast(self) -> bool:
        """True for the limited broadcast 255.255.255.255."""
        return self._value == _MAX

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        if isinstance(other, IPv4Address):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        # The 32-bit value itself, like ``MAC``: allocation-free and the
        # same under every ``PYTHONHASHSEED``, so set and dict order of
        # addresses never depends on the interpreter's hash seed.
        return self._value

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        raw = self._value.to_bytes(4, "big")
        return ".".join(str(octet) for octet in raw)

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"


def ip_for_host(index: int, network: str = "10.0.0.0") -> IPv4Address:
    """A deterministic host address inside *network* (default 10/8).

    Host 0 gets ``10.0.0.1``; the host part is ``index + 1`` so that no
    host ever receives the network address itself.
    """
    base = IPv4Address(network).value
    return IPv4Address(base + index + 1)


@dataclass(slots=True)
class IPv4Packet:
    """A simulated IPv4 packet carrying a payload object.

    The payload is any object exposing ``wire_size`` (e.g.
    :class:`repro.frames.udp.UdpDatagram`) or raw ``bytes``. No
    ``__dict__``: one is allocated per data frame.
    """

    src: IPv4Address
    dst: IPv4Address
    proto: int
    payload: Any
    ttl: int = DEFAULT_TTL
    ident: int = 0

    @property
    def wire_size(self) -> int:
        """Header plus payload size in bytes."""
        return IPV4_HEADER_LEN + payload_size(self.payload)


def payload_size(payload: Any) -> int:
    """Wire size in bytes of an arbitrary payload object.

    Objects may expose ``wire_size``; raw ``bytes`` use their length;
    ``None`` counts as zero.
    """
    if payload is None:
        return 0
    size = getattr(payload, "wire_size", None)
    if size is not None:
        return int(size)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")
