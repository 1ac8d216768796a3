"""The ARP-Path locked address table.

This is the data structure the paper's whole mechanism rests on
(§2.1.1): the first copy of a discovery broadcast **locks** the source
address to its ingress port; later copies arriving on other ports are
*discarded*, because they travelled a slower path. Unicast frames that
then flow over the chosen path **confirm** entries into a long-lived
LEARNT state.

Unlike a classic 802.1 filtering database (``repro.switching.table``),
an entry here answers two different questions:

* data-plane lookup — *which port reaches this address?* (same as FDB);
* discovery filter — *on which port do I accept broadcasts from this
  address?* (this is what makes flooding loop-free without STP).

Non-path broadcasts (§2.1.3) are filtered by separate short-lived
*guard* entries that never serve unicast lookups and never create
paths.

Both entry kinds age through a shared :class:`repro.netsim.aging
.AgingStore`: lookups reap lazily (the correctness mechanism — no
behaviour may depend on when memory is reclaimed) and, when the table
is built with a simulator, expired entries are reclaimed within a
quarter second of their deadline by the store's deadline buckets — one
engine timer per bucket, no timer per entry and no periodic sweep.

The stores are keyed on the 48-bit integer (``mac._value``) behind a
``MAC``-typed API, so hashing and equality run in C and one lookup is
one dict probe plus one ``expires > now`` compare. Live entries are
refreshed **in place**: an entry handed out by :meth:`LockedAddressTable
.get` is the table's own record, not a snapshot — read what you need
from it before the next table call for that address.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.frames.mac import MAC
from repro.netsim.aging import AgingStore
from repro.netsim.node import Port

if TYPE_CHECKING:
    from repro.netsim.engine import Simulator


class EntryState(enum.Enum):
    """Lifecycle of a locked-table entry."""

    #: Created by the first copy of a discovery broadcast; short timer.
    LOCKED = "locked"
    #: Confirmed by unicast traffic along the path; long, refreshed timer.
    LEARNT = "learnt"


@dataclass(slots=True)
class PathEntry:
    """One address → port association.

    Slotted: bridges hold one of these per active conversation
    endpoint, so at population scale the per-entry ``__dict__`` would
    triple the table's footprint for nothing.

    ``race_until`` marks the end of the discovery race that created the
    entry: while armed, discovery broadcasts from this address arriving
    on *other* ports are losers of that race and must be discarded —
    even after a unicast has already confirmed the entry to LEARNT
    (the confirmation can arrive long before the slowest race copy).
    """

    mac: MAC
    port: Port
    state: EntryState
    expires: float
    race_until: float = 0.0
    filed: int = field(default=0, repr=False, compare=False)

    @property
    def is_locked(self) -> bool:
        return self.state is EntryState.LOCKED

    def race_active(self, now: float) -> bool:
        """True while the discovery race that set this entry is running."""
        return self.race_until > now


@dataclass(slots=True)
class GuardEntry:
    """A broadcast first-arrival guard (paper §2.1.3); never a path."""

    port: Port
    expires: float
    filed: int = field(default=0, repr=False, compare=False)


@dataclass
class TableCounters:
    locks: int = 0
    relocks: int = 0
    learns: int = 0
    confirms: int = 0
    refreshes: int = 0
    expiries: int = 0
    port_flushes: int = 0
    blocked_moves: int = 0


#: ``lock``'s default for "the caller has not probed" — ``None`` already
#: means "probed, nothing live".
_UNPROBED = object()


class LockedAddressTable:
    """MAC → (port, state) with the ARP-Path locking semantics.

    Pass the owning *sim* to have expired entries reclaimed as
    simulated time passes (the stores' deadline buckets); without one
    the table works standalone with lazy reaping plus the explicit
    :meth:`expire` sweep.
    """

    def __init__(self, lock_timeout: float, learnt_timeout: float,
                 guard_timeout: float, sim: Optional["Simulator"] = None):
        self.lock_timeout = lock_timeout
        self.learnt_timeout = learnt_timeout
        self.guard_timeout = guard_timeout
        self.counters = TableCounters()
        self._entries = AgingStore(sim, on_reap=self._note_expiry)
        self._guards = AgingStore(sim)
        # The hit path's one probe: bound ``dict.get`` of the path store
        # (the dict object lives as long as the store does).
        self._probe = self._entries.entries.get

    def _note_expiry(self, key: int, entry: PathEntry) -> None:
        self.counters.expiries += 1

    # -- path entries ----------------------------------------------------

    def get(self, mac: MAC, now: float) -> Optional[PathEntry]:
        """The live entry for *mac*, or None (expired entries are reaped)."""
        entry = self._probe(mac._value)
        if entry is None or entry.expires > now:
            return entry
        return self._entries.get(mac._value, now)  # reaps; None

    def lock(self, mac: MAC, port: Port, now: float,
             live: Optional[PathEntry] = _UNPROBED) -> PathEntry:
        """Lock *mac* to *port* (first copy of a discovery broadcast).

        Replaces any existing entry: a fresh discovery race always
        starts from the winning copy's port. Loop-freedom within one
        race is guaranteed by the LOCKED state, not by history.

        *live* is what the caller's own ``get(mac, now)`` returned, if
        it made one; it decides ``relocks`` vs ``locks``, so an expired
        entry nobody reclaimed yet never counts as a relock.
        """
        if live is _UNPROBED:
            live = self.get(mac, now)
        if live is not None:
            self.counters.relocks += 1
        else:
            self.counters.locks += 1
        until = now + self.lock_timeout
        return self._entries.put(mac._value, PathEntry(
            mac, port, EntryState.LOCKED, expires=until, race_until=until))

    def learn(self, mac: MAC, port: Port, now: float) -> PathEntry:
        """Learn/refresh *mac* on *port* in LEARNT state (unicast source).

        If a live entry exists on a *different* port it is preserved
        (paths are sticky until they expire or fail); the attempt is
        counted as a blocked move and the existing entry returned. A
        live same-port entry is refreshed in place (``race_until`` survives).
        """
        # ``get`` inlined: this runs once per unicast hop.
        key = mac._value
        entry = self._probe(key)
        if entry is not None and entry.expires <= now:
            entry = self._entries.get(key, now)  # reaps; None
        if entry is None:
            self.counters.learns += 1
            return self._entries.put(key, PathEntry(
                mac=mac, port=port, state=EntryState.LEARNT,
                expires=now + self.learnt_timeout))
        if entry.port is not port:
            self.counters.blocked_moves += 1
            return entry
        return self.confirm_entry(entry, now)

    def confirm(self, mac: MAC, now: float) -> Optional[PathEntry]:
        """Upgrade a LOCKED entry to LEARNT (unicast travelled the path).

        This is the §2.1.2 step: the ARP Reply converts the temporary
        reverse path into an established one. Refreshes LEARNT entries.
        """
        entry = self.get(mac, now)
        if entry is None:
            return None
        return self.confirm_entry(entry, now)

    def confirm_entry(self, entry: PathEntry, now: float) -> PathEntry:
        """:meth:`confirm` for the live *entry* the caller just fetched."""
        if entry.state is EntryState.LOCKED:
            self.counters.confirms += 1
        else:
            self.counters.refreshes += 1
        entry.state = EntryState.LEARNT
        entry.expires = now + self.learnt_timeout
        return entry

    def refresh_lock(self, mac: MAC, now: float,
                     entry: Optional[PathEntry] = None
                     ) -> Optional[PathEntry]:
        """Re-arm the timer of an entry hit by a same-port broadcast.

        Pass the live *entry* when the caller already fetched it.
        """
        if entry is None:
            entry = self.get(mac, now)
            if entry is None:
                return None
        self.counters.refreshes += 1
        until = entry.race_until = now + self.lock_timeout
        entry.expires = until if entry.is_locked else now + self.learnt_timeout
        return entry

    def remove(self, mac: MAC) -> bool:
        """Erase the entry for *mac* (PathFail handling). True if present."""
        return self._entries.pop(mac._value) is not None

    # -- broadcast guards --------------------------------------------------

    def guard_port(self, mac: MAC, now: float) -> Optional[Port]:
        """The accept-port for non-path broadcasts from *mac*, if any."""
        guard = self._guards.get(mac._value, now)
        return guard.port if guard is not None else None

    def set_guard(self, mac: MAC, port: Port, now: float) -> None:
        """Guard broadcasts from *mac* to *port* for guard_timeout."""
        self._guards.put(mac._value, GuardEntry(
            port=port, expires=now + self.guard_timeout))

    # -- maintenance ---------------------------------------------------------

    def flush_port(self, port: Port) -> int:
        """Erase every entry and guard on *port* (carrier lost)."""
        flushed = self._entries.pop_matching(
            lambda key, entry: entry.port is port)
        self.counters.port_flushes += flushed
        self._guards.pop_matching(lambda key, guard: guard.port is port)
        return flushed

    def flush(self) -> None:
        self._entries.clear()
        self._guards.clear()

    def expire(self, now: float) -> int:
        """Reap every expired entry (lazy reaping happens on access too)."""
        stale = self._entries.reap(now)
        self._guards.reap(now)
        return stale

    def entries(self, now: Optional[float] = None) -> List[PathEntry]:
        """All entries, filtered to live ones when *now* is given."""
        if now is None:
            return list(self._entries.values())
        return list(self._entries.live_values(now))

    def occupancy(self, now: float) -> Dict[str, int]:
        """Live entry counts by state (table-size experiments)."""
        locked = learnt = 0
        for entry in self._entries.live_values(now):
            if entry.is_locked:
                locked += 1
            else:
                learnt += 1
        return {"locked": locked, "learnt": learnt,
                "guards": self._guards.live_count(now)}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, mac: MAC) -> bool:
        return mac._value in self._entries
