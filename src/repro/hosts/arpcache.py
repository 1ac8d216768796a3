"""The host-side ARP cache with pending-packet queueing.

Unmodified hosts are a core claim of the paper ("fully transparent to
hosts"): the cache here is a faithful model of an ordinary OS ARP
implementation — resolution triggers the broadcast ARP Request that
ARP-Path bridges race through the network.

Both maps are keyed by the address's 32-bit integer (``_value``), the
way :class:`~repro.hosts.population.HostPopulation` keys its shared
cache: a lookup hashes an ``int`` instead of calling
``IPv4Address.__hash__``, and the receive path compares no address
objects. The API still takes and returns :class:`IPv4Address` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.frames.ipv4 import IPv4Address
from repro.frames.mac import MAC

DEFAULT_ARP_TIMEOUT = 60.0
DEFAULT_RETRY_INTERVAL = 1.0
DEFAULT_MAX_RETRIES = 3


@dataclass(slots=True)
class ArpEntry:
    mac: MAC
    expires: float


@dataclass(slots=True)
class PendingResolution:
    """Packets parked while an IP address resolves."""

    packets: List[Any] = field(default_factory=list)
    retries_left: int = DEFAULT_MAX_RETRIES
    retry_event: Any = None


class ArpCache:
    """IP→MAC mappings with expiry, plus a queue of unresolved packets."""

    def __init__(self, timeout: float = DEFAULT_ARP_TIMEOUT,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 max_pending_per_ip: int = 16):
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_pending_per_ip = max_pending_per_ip
        self._entries: Dict[int, ArpEntry] = {}
        self._pending: Dict[int, PendingResolution] = {}
        self.dropped_pending = 0

    def lookup(self, ip: IPv4Address, now: float) -> Optional[MAC]:
        """The cached MAC for *ip*, or None when absent/expired."""
        key = ip._value
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.expires <= now:
            del self._entries[key]
            return None
        return entry.mac

    def insert(self, ip: IPv4Address, mac: MAC,
               now: float) -> Optional[MAC]:
        """Learn (or refresh, in place) a binding; returns *mac*.

        A binding that would be born expired (``timeout <= 0``) is not
        kept: any entry for *ip* is dropped and None is returned, as a
        lookup at *now* would have done.
        """
        key = ip._value
        expires = now + self.timeout
        if expires <= now:
            self._entries.pop(key, None)
            return None
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = ArpEntry(mac=mac, expires=expires)
        else:
            entry.mac = mac
            entry.expires = expires
        return mac

    def invalidate(self, ip: IPv4Address) -> None:
        """Forget a binding (e.g. on delivery failure)."""
        self._entries.pop(ip._value, None)

    def flush(self) -> None:
        """Forget everything."""
        self._entries.clear()

    def __contains__(self, ip: IPv4Address) -> bool:
        return ip._value in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- pending queue -------------------------------------------------------

    def park(self, ip: IPv4Address, packet: Any) -> PendingResolution:
        """Queue *packet* until *ip* resolves.

        Returns the pending record; the caller owns retry scheduling.
        Overflowing packets beyond ``max_pending_per_ip`` are dropped
        (matching real stacks, which keep a tiny ARP hold queue).
        """
        key = ip._value
        pending = self._pending.get(key)
        if pending is None:
            pending = PendingResolution(retries_left=self.max_retries)
            self._pending[key] = pending
        if len(pending.packets) >= self.max_pending_per_ip:
            self.dropped_pending += 1
            return pending
        pending.packets.append(packet)
        return pending

    def pending_for(self, ip: IPv4Address) -> Optional[PendingResolution]:
        return self._pending.get(ip._value)

    def take_pending(self, ip: IPv4Address) -> List[Any]:
        """Remove and return the parked packets for *ip* (resolution done)."""
        pending = self._pending.pop(ip._value, None)
        if pending is None:
            return []
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        return pending.packets

    def abandon(self, ip: IPv4Address) -> int:
        """Give up on *ip*; returns the number of packets dropped."""
        pending = self._pending.pop(ip._value, None)
        if pending is None:
            return 0
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        self.dropped_pending += len(pending.packets)
        return len(pending.packets)

    @property
    def pending_ips(self) -> List[IPv4Address]:
        return [IPv4Address(key) for key in self._pending]
