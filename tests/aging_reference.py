"""A frozen copy of ``AgingStore`` from before entries carried their own
filing: a parallel key → slot dict (``_slots``) beside the entries.

Test-only, and nothing under ``src/`` imports it. It is the reference
``tests/test_aging_parity.py`` runs the live store against, step by
step: the two must reclaim at the same instants and arm the same wheel
timers. The class is copied unedited but for its name; only the
iteration helpers the parity test never calls are left out.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, List, Optional,
                    TYPE_CHECKING)

from repro.netsim.aging import RECLAIM_GRANULE

if TYPE_CHECKING:
    from repro.netsim.engine import Simulator

ReapHook = Callable[[Hashable, Any], None]

_INF = float("inf")


class ReferenceAgingStore:
    """Key → entry map with deadline-based expiry.

    Works standalone (pass ``sim=None``): lookups reap lazily and
    :meth:`reap` offers an explicit sweep — exactly what direct
    data-structure tests want. With a simulator attached, one engine
    timer per non-empty deadline bucket reclaims expired entries as
    simulated time passes.
    """

    __slots__ = ("entries", "_slots", "_buckets", "_sim", "_on_reap")

    def __init__(self, sim: Optional["Simulator"] = None,
                 on_reap: Optional[ReapHook] = None):
        #: The raw key → entry dict (expired entries included). Owners
        #: may *read* it on their hit path; every mutation goes through
        #: the methods below so the bucket invariant holds.
        self.entries: Dict[Hashable, Any] = {}
        #: key → the slot it is filed under (sim-backed stores only).
        self._slots: Dict[Hashable, int] = {}
        #: slot → keys filed there; one armed engine timer per slot.
        #: May hold keys since popped or re-filed — skipped when due.
        self._buckets: Dict[int, List[Hashable]] = {}
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
        """Insert or replace the entry for *key* and file its reclamation.

        A key is filed under at most one bucket; replacing an entry
        whose key is already filed leaves the filing alone (the bucket
        re-files it when it comes due and finds the entry still alive).
        """
        self.entries[key] = entry
        if self._sim is not None and key not in self._slots:
            self._file(key, entry.expires)
        return entry

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove and return the raw entry for *key* (None when absent).

        An explicit removal, not an expiry: the reap hook is NOT called.
        """
        self._slots.pop(key, None)
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
        """Drop every entry (pending buckets come due and find nothing)."""
        self._slots.clear()
        self.entries.clear()

    def reap(self, now: float) -> int:
        """Sweep every expired entry out immediately; returns how many.

        Kept for standalone use and introspection — simulation code
        never needs it (due buckets do this incrementally).
        """
        stale = [key for key, entry in self.entries.items()
                 if entry.expires <= now]
        for key in stale:
            entry = self.entries.pop(key)
            self._slots.pop(key, None)
            if self._on_reap is not None:
                self._on_reap(key, entry)
        return len(stale)

    def _file(self, key: Hashable, expires: float) -> None:
        """Remember *key* under the bucket that ends strictly after
        *expires* (or after now, for an entry expired on arrival). A
        deadline that never comes due is filed nowhere."""
        if expires == _INF:
            self._slots.pop(key, None)
            return
        sim = self._sim
        now = sim._now
        slot = int((expires if expires > now else now) / RECLAIM_GRANULE) + 1
        self._slots[key] = slot
        bucket = self._buckets.get(slot)
        if bucket is None:
            self._buckets[slot] = [key]
            sim.schedule_timer(slot * RECLAIM_GRANULE - now,
                               self._bucket_due, slot)
        else:
            bucket.append(key)

    def _bucket_due(self, slot: int) -> None:
        slots = self._slots
        entries = self.entries
        now = self._sim._now
        for key in self._buckets.pop(slot):
            if slots.get(key) != slot:
                continue        # popped or re-filed since; not ours
            entry = entries.get(key)
            if entry is None:   # reaped lazily
                del slots[key]
            elif entry.expires <= now:
                del entries[key], slots[key]
                if self._on_reap is not None:
                    self._on_reap(key, entry)
            else:
                # Refreshed (or replaced) since it was filed: one bucket
                # visit per bucket crossed, however hot the entry is.
                self._file(key, entry.expires)
