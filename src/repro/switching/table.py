"""Classic 802.1 learning table with aging.

Used by the plain learning switch and by the STP baseline's data plane.
(The ARP-Path bridge has its own, different table — see
:mod:`repro.core.table` — with the LOCKED/LEARNT semantics the paper
introduces.)

Aging runs on the shared :class:`repro.netsim.aging.AgingStore`
substrate: lookups reap lazily, and with a simulator attached the
store's quarter-second deadline buckets reclaim expired entries — one
engine timer per bucket, no timer per entry, no periodic sweep, and no
correctness dependency on reclamation timing. Like the locked
table, the store is keyed on the 48-bit integer (``mac._value``) behind
the ``MAC``-typed API, and the hit path is one dict probe plus one
expiry compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.frames.mac import MAC
from repro.netsim.aging import AgingStore
from repro.netsim.node import Port

if TYPE_CHECKING:
    from repro.netsim.engine import Simulator

DEFAULT_AGING_TIME = 300.0


@dataclass(slots=True)
class FdbEntry:
    """One filtering-database entry (slotted: one per learnt MAC, so
    population-scale tables skip the per-entry ``__dict__``)."""

    port: Port
    expires: float
    filed: int = field(default=0, repr=False, compare=False)


class ForwardingTable:
    """MAC → port mappings with aging.

    *aging_time* can be temporarily shortened (802.1D topology-change
    handling) with :meth:`set_aging` and restored with
    :meth:`restore_aging`. Pass *sim* to have expired entries
    reclaimed as simulated time passes.
    """

    def __init__(self, aging_time: float = DEFAULT_AGING_TIME,
                 sim: Optional["Simulator"] = None):
        self.default_aging_time = aging_time
        self.aging_time = aging_time
        self._entries = AgingStore(sim)
        self._probe = self._entries.entries.get
        self.learns = 0
        self.moves = 0

    def learn(self, mac: MAC, port: Port, now: float) -> None:
        """Associate *mac* with *port* (refreshing the age); an expired
        entry nobody reclaimed yet is absent — a learn, never a move."""
        entry = self._probe(mac._value)
        if entry is None or entry.expires <= now:
            self.learns += 1
            self._entries.put(mac._value, FdbEntry(
                port=port, expires=now + self.aging_time))
            return
        if entry.port is not port:
            self.moves += 1
            entry.port = port
        entry.expires = now + self.aging_time

    def lookup(self, mac: MAC, now: float) -> Optional[Port]:
        """The port for *mac*, or None when unknown/expired."""
        entry = self._probe(mac._value)
        if entry is None:
            return None
        if entry.expires > now:
            return entry.port
        self._entries.get(mac._value, now)  # reaps
        return None

    def flush(self) -> None:
        """Remove every entry."""
        self._entries.clear()

    def flush_port(self, port: Port) -> int:
        """Remove all entries pointing at *port*; returns how many."""
        return self._entries.pop_matching(
            lambda key, entry: entry.port is port)

    def expire(self, now: float) -> int:
        """Drop entries whose age ran out; returns how many."""
        return self._entries.reap(now)

    def set_aging(self, aging_time: float) -> None:
        """Temporarily change the aging time (new learns only)."""
        self.aging_time = aging_time

    def restore_aging(self) -> None:
        self.aging_time = self.default_aging_time

    def macs_on(self, port: Port) -> List[MAC]:
        return [MAC(key) for key, entry in self._entries.items()
                if entry.port is port]

    def live_count(self, now: float) -> int:
        """Unexpired entries at *now* — exact occupancy, independent of
        what has been reclaimed yet (``len`` counts unreaped entries)."""
        return self._entries.live_count(now)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, mac: MAC) -> bool:
        return mac._value in self._entries
