"""Shared aging infrastructure for address tables.

An :class:`AgingStore` is a key → entry map where every entry carries an
``expires`` deadline in simulation seconds. It is the common substrate
under both the ARP-Path locked table (:mod:`repro.core.table`) and the
802.1 filtering database (:mod:`repro.switching.table`), replacing the
per-bridge periodic expiry sweeps those tables used to run.

Two mechanisms cooperate, with a strict division of labour:

* **Lazy reap-on-lookup** — :meth:`AgingStore.get` treats an entry with
  ``expires <= now`` as absent and deletes it on the spot. This is the
  *only* mechanism correctness may rely on: protocol behaviour must be
  identical whether or not memory has been reclaimed yet.
* **Timer-wheel reclamation** — when a simulator is attached, each key
  arms at most one :meth:`~repro.netsim.engine.Simulator.schedule_timer`
  wheel timer at its entry's deadline. A refreshed entry does not
  re-arm eagerly; the timer fires at the *old* deadline, notices the
  entry still lives, and re-arms at the new one (kernel-style lazy
  re-arm). Prompt memory reclamation without any O(table) sweep.

Entries are any objects exposing a mutable ``expires`` attribute, and
owners refresh them **in place** (assign a later ``expires``) instead of
re-``put``-ting them. That is safe because of the store invariant:

    with a simulator attached, every key in ``entries`` has exactly one
    armed wheel timer (a lazy reap leaves its timer pending, so timers
    may outnumber entries — never the reverse).

:meth:`put` arms only a key that has no timer, ``_timer_fired`` re-arms
or deletes, :meth:`pop` / :meth:`reap` / :meth:`clear` cancel what they
remove (``tests/test_table_model.py`` checks it after every step).

The hit path belongs to the owning table: it probes :attr:`AgingStore
.entries` itself, compares ``expires > now``, and enters :meth:`get`
only to reap an entry it found expired.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Tuple, TYPE_CHECKING)

if TYPE_CHECKING:
    from repro.netsim.engine import Event, Simulator

#: Callback invoked as ``on_reap(key, entry)`` when an expired entry is
#: reclaimed (lazily, by sweep, or by a wheel timer).
ReapHook = Callable[[Hashable, Any], None]


class AgingStore:
    """Key → entry map with deadline-based expiry.

    Works standalone (pass ``sim=None``): lookups reap lazily and
    :meth:`reap` offers an explicit sweep — exactly what direct
    data-structure tests want. With a simulator attached, wheel timers
    reclaim expired entries promptly as simulated time passes.
    """

    __slots__ = ("entries", "_timers", "_sim", "_on_reap")

    def __init__(self, sim: Optional["Simulator"] = None,
                 on_reap: Optional[ReapHook] = None):
        #: The raw key → entry dict (expired entries included). Owners
        #: may *read* it on their hit path; every mutation goes through
        #: the methods below so the timer invariant holds.
        self.entries: Dict[Hashable, Any] = {}
        self._timers: Dict[Hashable, "Event"] = {}
        self._sim = sim
        self._on_reap = on_reap

    # -- lookups -------------------------------------------------------------

    def get(self, key: Hashable, now: float) -> Optional[Any]:
        """The live entry for *key*, or None (expired entries are reaped)."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        if entry.expires <= now:
            del self.entries[key]
            if self._on_reap is not None:
                self._on_reap(key, entry)
            return None
        return entry

    # -- mutation ------------------------------------------------------------

    def put(self, key: Hashable, entry: Any) -> Any:
        """Insert or replace the entry for *key* and arm its reclamation.

        At most one wheel timer is armed per key; replacing an entry
        whose timer is already pending leaves the timer alone (it
        re-arms lazily when it fires and finds the entry still alive).
        """
        self.entries[key] = entry
        sim = self._sim
        if sim is not None and key not in self._timers:
            self._timers[key] = sim.schedule_timer(
                max(entry.expires - sim._now, 0.0), self._timer_fired, key)
        return entry

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove and return the raw entry for *key* (None when absent).

        An explicit removal, not an expiry: the reap hook is NOT called.
        """
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        return self.entries.pop(key, None)

    def pop_matching(self, predicate: Callable[[Hashable, Any], bool]) -> int:
        """Remove every entry matching *predicate(key, entry)*; returns
        how many (explicit removal — no reap hook)."""
        stale = [key for key, entry in self.entries.items()
                 if predicate(key, entry)]
        for key in stale:
            self.pop(key)
        return len(stale)

    def clear(self) -> None:
        """Drop every entry and cancel every pending reclamation timer."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self.entries.clear()

    def reap(self, now: float) -> int:
        """Sweep every expired entry out immediately; returns how many.

        Kept for standalone use and introspection — simulation code
        never needs it (the wheel does this incrementally).
        """
        stale = [key for key, entry in self.entries.items()
                 if entry.expires <= now]
        for key in stale:
            entry = self.entries.pop(key)
            timer = self._timers.pop(key, None)
            if timer is not None:
                timer.cancel()
            if self._on_reap is not None:
                self._on_reap(key, entry)
        return len(stale)

    def _timer_fired(self, key: Hashable) -> None:
        self._timers.pop(key, None)
        entry = self.entries.get(key)
        if entry is None:
            return
        sim = self._sim
        now = sim._now
        if entry.expires <= now:
            del self.entries[key]
            if self._on_reap is not None:
                self._on_reap(key, entry)
        else:
            # Entry was refreshed since the timer was armed: re-arm at
            # the new deadline (lazy re-arm keeps timer churn at one
            # pending timer per key no matter how hot the entry is).
            self._timers[key] = sim.schedule_timer(
                entry.expires - now, self._timer_fired, key)

    # -- iteration / sizing ----------------------------------------------

    def items(self) -> Iterable[Tuple[Hashable, Any]]:
        """Raw (key, entry) pairs — may include expired entries."""
        return self.entries.items()

    def values(self) -> Iterable[Any]:
        """Raw entries — may include expired ones."""
        return self.entries.values()

    def live_values(self, now: float) -> Iterator[Any]:
        """Entries whose deadline has not passed at *now*."""
        return (entry for entry in self.entries.values()
                if entry.expires > now)

    def live_count(self, now: float) -> int:
        return sum(1 for entry in self.entries.values()
                   if entry.expires > now)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.entries

    def __repr__(self) -> str:
        return (f"<AgingStore entries={len(self.entries)} "
                f"timers={len(self._timers)}>")
