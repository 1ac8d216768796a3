"""The ARP-Path locked address table.

This is the data structure the paper's whole mechanism rests on
(§2.1.1): the first copy of a discovery broadcast **locks** the source
address to its ingress port; later copies arriving on other ports are
*discarded*, because they travelled a slower path. Unicast frames that
then flow over the chosen path **confirm** it into a long-lived LEARNT
state. The table answers two questions with one record kind each:

* *which port reaches this address?* — a LEARNT :class:`PathEntry`;
* *on which port do I accept broadcasts from it?* — a :class:`Lock`,
  the port that won the source's latest broadcast race, discovery
  (§2.1.1) or not (§2.1.3). A discovery lock also carries the LOCKED
  reverse path until a unicast confirms it.

PathFail and carrier loss erase paths, never a lock: only time ends a
race, because a late copy cannot be told from a new race by its source.

Both stores are :class:`repro.netsim.aging.AgingStore` maps keyed on
``mac._value``: lookups reap lazily (no behaviour may depend on when
memory is reclaimed) and, with a simulator, the stores' deadline
buckets reclaim expired records within a quarter second — no timer per
record, no sweep. Live records are refreshed **in place**: a record
handed out by :meth:`LockedAddressTable.get` is the table's own, not a
snapshot.
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
    """Lifecycle of a path: the :attr:`state` of its record kind."""

    #: The reverse path a discovery race's winning copy left; short timer.
    LOCKED = "locked"
    #: Confirmed by unicast traffic along the path; long, refreshed timer.
    LEARNT = "learnt"


# The members as module globals: on the hot path a global load is an
# order of magnitude cheaper than an enum class-attribute load.
LOCKED = EntryState.LOCKED
LEARNT = EntryState.LEARNT


@dataclass(slots=True)
class PathEntry:
    """A confirmed address → port path.

    Slotted: bridges hold one of these per active conversation
    endpoint, so at population scale the per-entry ``__dict__`` would
    triple the table's footprint for nothing.
    """

    mac: MAC
    port: Port
    expires: float
    filed: int = field(default=0, repr=False, compare=False)

    state = LEARNT
    is_locked = False


@dataclass(slots=True)
class Lock:
    """The port that won *mac*'s latest broadcast race, until ``expires``:
    copies on other ports lose. ``path``: it still carries the race's
    LOCKED reverse path (not yet confirmed, erased or flushed)."""

    mac: MAC
    port: Port
    expires: float
    path: bool
    filed: int = field(default=0, repr=False, compare=False)

    state = LOCKED
    is_locked = True


@dataclass
class TableCounters:
    locks: int = 0
    relocks: int = 0
    learns: int = 0
    expiries: int = 0   # read off the stores' reap counts
    blocked_moves: int = 0


#: ``lock``'s default for "the caller has not probed" — ``None`` already
#: means "probed, nothing live".
_UNPROBED = object()


class LockedAddressTable:
    """MAC → path and MAC → race lock, with the ARP-Path semantics.

    Without a *sim* the table works standalone: lazy reaping plus the
    explicit :meth:`expire` sweep.
    """

    def __init__(self, lock_timeout: float, learnt_timeout: float,
                 guard_timeout: float, sim: Optional["Simulator"] = None):
        self.lock_timeout = lock_timeout
        self.learnt_timeout = learnt_timeout
        self.guard_timeout = guard_timeout
        self._counters = TableCounters()
        self._entries = AgingStore(sim)
        self._locks = AgingStore(sim)
        # The hit path's probes: bound ``dict.get`` of each store (the
        # dict objects live as long as the stores do).
        self._probe = self._entries.entries.get
        self._race = self._locks.entries.get

    @property
    def counters(self) -> TableCounters:
        """The table's counters, ``expiries`` read off both stores."""
        counters = self._counters
        counters.expiries = self._entries.reaped + self._locks.reaped
        return counters

    # -- paths -------------------------------------------------------------

    def get(self, mac: MAC, now: float) -> Optional[PathEntry | Lock]:
        """The live path to *mac* — its LEARNT entry, else the LOCKED
        lock of its latest discovery race — or None. Expired records
        are reaped."""
        key = mac._value
        entry = self._probe(key)
        if entry is not None:
            if entry.expires > now:
                return entry
            self._entries.get(key, now)     # reaps
        lock = self._race(key)
        if lock is not None and lock.expires <= now:
            lock = self._locks.get(key, now)    # reaps; None
        return lock if lock is not None and lock.path else None

    def learn(self, mac: MAC, port: Port, now: float) -> PathEntry | Lock:
        """Learn/confirm *mac* on *port* in LEARNT state (unicast source).

        A live path on a *different* port is preserved (paths are sticky
        until they expire or fail): counted as a blocked move, returned.
        """
        entry = self.get(mac, now)
        if entry is None:
            self._counters.learns += 1
            return self._entries.put(mac._value, PathEntry(
                mac, port, now + self.learnt_timeout))
        if entry.port is not port:
            self._counters.blocked_moves += 1
            return entry
        return self.confirm_entry(entry, now)

    def confirm(self, mac: MAC, now: float) -> Optional[PathEntry]:
        """Confirm *mac*'s live path (unicast travelled it).

        This is the §2.1.2 step: the ARP Reply converts the temporary
        reverse path into an established one. Refreshes LEARNT entries.
        """
        entry = self.get(mac, now)
        if entry is None:
            return None
        return self.confirm_entry(entry, now)

    def confirm_entry(self, entry: PathEntry | Lock,
                      now: float) -> PathEntry:
        """:meth:`confirm` for the live path *entry* the caller just
        fetched; a lock's path moves into a new :class:`PathEntry`."""
        if entry.state is LEARNT:
            entry.expires = now + self.learnt_timeout
            return entry
        entry.path = False
        return self._entries.put(entry.mac._value, PathEntry(
            entry.mac, entry.port, now + self.learnt_timeout))

    def remove(self, mac: MAC) -> bool:
        """Erase *mac*'s path (PathFail handling); its lock stays. True
        if a path was held."""
        lock = self._race(mac._value)
        held = lock is not None and lock.path
        if held:
            lock.path = False
        return self._entries.pop(mac._value) is not None or held

    # -- races -------------------------------------------------------------

    def race(self, mac: MAC, now: float) -> Optional[Lock]:
        """*mac*'s live lock, or None (an expired one is reaped)."""
        return self._locks.get(mac._value, now)

    def lock(self, mac: MAC, port: Port, now: float,
             live: Optional[Lock] = _UNPROBED) -> Lock:
        """A discovery copy from *mac* won on *port*: lock it there for
        lock_timeout (never shortening the lock), with the race's
        reverse path. A live LEARNT path on *port* is refreshed instead;
        one elsewhere is replaced, and counted in ``relocks`` as a moved
        LOCKED path is. A source with no live path counts in ``locks``.
        *live* is what the caller's own ``race(mac, now)`` returned.
        """
        key = mac._value
        if live is _UNPROBED:
            live = self._locks.get(key, now)
        entry = self._probe(key)
        if entry is not None and entry.expires <= now:
            entry = self._entries.get(key, now)     # reaps; None
        path = True
        if entry is not None:
            if entry.port is port:
                entry.expires = now + self.learnt_timeout
                path = False
            else:
                self._entries.pop(key)
                self._counters.relocks += 1
        elif live is None or not live.path:
            self._counters.locks += 1
        elif live.port is not port:
            self._counters.relocks += 1
        until = now + self.lock_timeout
        if live is None:
            return self._locks.put(key, Lock(mac, port, until, path))
        live.port = port
        live.path = path
        if live.expires < until:
            live.expires = until
        return live

    def refresh_lock(self, mac: MAC, now: float) -> Optional[Lock]:
        """Re-arm *mac*'s lock on its live path's port, as a winning
        copy there would; None when no path is live."""
        entry = self.get(mac, now)
        return None if entry is None else self.lock(mac, entry.port, now)

    def guard(self, mac: MAC, port: Port, now: float) -> None:
        """A non-discovery broadcast from *mac* was accepted on *port*
        (§2.1.3): arm or extend its lock there for guard_timeout. It
        never creates a path."""
        lock = self._locks.get(mac._value, now)
        until = now + self.guard_timeout
        if lock is None:
            self._locks.put(mac._value, Lock(mac, port, until, False))
        elif lock.expires < until:
            lock.expires = until

    # -- maintenance ---------------------------------------------------------

    def flush_port(self, port: Port) -> int:
        """Erase every path on *port* (carrier lost); locks stay.
        Returns how many."""
        flushed = self._entries.pop_matching(
            lambda key, entry: entry.port is port)
        for lock in self._locks.values():
            if lock.path and lock.port is port:
                lock.path = False
                flushed += 1
        return flushed

    def flush(self) -> None:
        """Forget everything (the bridge was power-cycled)."""
        self._entries.clear()
        self._locks.clear()

    def expire(self, now: float) -> int:
        """Reap every expired record (lazy reaping happens on access too)."""
        return self._entries.reap(now) + self._locks.reap(now)

    def entries(self, now: Optional[float] = None
                ) -> List[PathEntry | Lock]:
        """All paths (LEARNT, then LOCKED), live ones when *now* is given."""
        paths = [*self._entries.values(),
                 *(lock for lock in self._locks.values() if lock.path)]
        return [entry for entry in paths
                if now is None or entry.expires > now]

    def occupancy(self, now: float) -> Dict[str, int]:
        """Live path counts by state (table-size experiments)."""
        return {"locked": sum(lock.path
                              for lock in self._locks.live_values(now)),
                "learnt": self._entries.live_count(now)}

    def __len__(self) -> int:
        """Records held, live or not: LEARNT entries plus locks."""
        return len(self._entries) + len(self._locks)

    def __contains__(self, mac: MAC) -> bool:
        return mac._value in self._entries or mac._value in self._locks
