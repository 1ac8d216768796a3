"""48-bit MAC (EUI-48) addresses.

The whole library passes :class:`MAC` values around instead of strings or
raw bytes: they are immutable, hashable, cheap to compare and render in
the canonical ``aa:bb:cc:dd:ee:ff`` form.
"""

from __future__ import annotations

import re

_MAC_RE = re.compile(r"^([0-9A-Fa-f]{2})([:-]?)([0-9A-Fa-f]{2})\2([0-9A-Fa-f]{2})\2"
                     r"([0-9A-Fa-f]{2})\2([0-9A-Fa-f]{2})\2([0-9A-Fa-f]{2})$")

_MAX = (1 << 48) - 1

# The group (multicast) bit (bit 0 of the first octet).
_GROUP_BIT = 0x01_00_00_00_00_00


class MAC:
    """An immutable 48-bit Ethernet MAC address.

    Accepts an integer, another :class:`MAC`, 6 raw bytes, or a string in
    any of the usual textual forms (``aa:bb:cc:dd:ee:ff``,
    ``aa-bb-cc-dd-ee-ff``, ``aabbccddeeff``). Hand-written, not a
    dataclass: it parses its input and hashes as the raw 48-bit int.

    >>> MAC("00:11:22:33:44:55").value == 0x001122334455
    True
    >>> MAC(0xFFFFFFFFFFFF).is_broadcast
    True
    """

    __slots__ = ("_value",)

    def __init__(self, value: "int | str | bytes | MAC"):
        if isinstance(value, MAC):
            self._value = value._value
            return
        if isinstance(value, int):
            if not 0 <= value <= _MAX:
                raise ValueError(f"MAC integer out of range: {value:#x}")
            self._value = value
            return
        if isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise ValueError(f"MAC needs exactly 6 bytes, got {len(value)}")
            self._value = int.from_bytes(bytes(value), "big")
            return
        if isinstance(value, str):
            match = _MAC_RE.match(value.strip())
            if match is None:
                raise ValueError(f"not a MAC address: {value!r}")
            groups = match.groups()
            octets = [groups[0]] + list(groups[2:])
            self._value = int("".join(octets), 16)
            return
        raise TypeError(f"cannot build MAC from {type(value).__name__}")

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> int:
        """The address as a 48-bit integer."""
        return self._value

    @property
    def is_broadcast(self) -> bool:
        """True for ff:ff:ff:ff:ff:ff."""
        return self._value == _MAX

    @property
    def is_multicast(self) -> bool:
        """True when the group bit is set (includes broadcast)."""
        return bool(self._value & _GROUP_BIT)

    @property
    def is_unicast(self) -> bool:
        """True for individual (non-group) addresses."""
        return not self.is_multicast

    def to_bytes(self) -> bytes:
        """The 6-byte big-endian wire representation."""
        return self._value.to_bytes(6, "big")

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MAC):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "MAC") -> bool:
        if isinstance(other, MAC):
            return self._value < other._value
        return NotImplemented

    def __le__(self, other: "MAC") -> bool:
        if isinstance(other, MAC):
            return self._value <= other._value
        return NotImplemented

    def __gt__(self, other: "MAC") -> bool:
        if isinstance(other, MAC):
            return self._value > other._value
        return NotImplemented

    def __ge__(self, other: "MAC") -> bool:
        if isinstance(other, MAC):
            return self._value >= other._value
        return NotImplemented

    def __hash__(self) -> int:
        # The raw 48-bit value IS the hash (CPython hashes an int under
        # 2**61-1 to itself): table lookups key on MACs at every hop of
        # every flooded copy, and hash() on the cached slot is pure
        # overhead at population scale.
        return self._value

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i:i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MAC('{self}')"


#: The all-ones broadcast address.
BROADCAST = MAC(_MAX)

#: Conventional all-zero placeholder (e.g. ARP target hardware address).
ZERO = MAC(0)


def mac_for_host(index: int) -> MAC:
    """A deterministic locally-administered unicast MAC for host *index*.

    Hosts get addresses under the ``02:00:00`` prefix.
    """
    if not 0 <= index < (1 << 24):
        raise ValueError(f"host index out of range: {index}")
    return MAC(0x02_00_00_00_00_00 | index)


def mac_for_bridge(index: int) -> MAC:
    """A deterministic locally-administered unicast MAC for bridge *index*.

    Bridges get addresses under the ``02:00:01`` prefix so host and
    bridge identities never collide.
    """
    if not 0 <= index < (1 << 24):
        raise ValueError(f"bridge index out of range: {index}")
    return MAC(0x02_00_01_00_00_00 | index)


def mac_for_controller(index: int) -> MAC:
    """A deterministic locally-administered unicast MAC for an
    out-of-band controller node.

    Controllers get the ``02:00:02`` prefix, disjoint from both hosts
    and bridges.
    """
    if not 0 <= index < (1 << 24):
        raise ValueError(f"controller index out of range: {index}")
    return MAC(0x02_00_02_00_00_00 | index)
