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
* **Bucketed reclamation** — when a simulator is attached, the store
  files each key under the quarter-second bucket that ends strictly
  after its entry's deadline (``slot = int(expires / RECLAIM_GRANULE)
  + 1``) and the first key of a bucket arms **one** engine wheel timer
  at ``slot * RECLAIM_GRANULE``. When it fires the store walks that
  bucket once: expired entries are deleted, an entry refreshed since
  it was filed is re-filed under its new deadline's bucket
  (kernel-style lazy re-arm). No timer per entry — the way a NetFPGA
  table has a coarse background scan and no per-row timer — no
  O(table) sweep, and an idle store schedules nothing. Memory is held
  at most one granule past the deadline the key was filed at;
  ``on_reap`` side effects inherit that instant unless a lookup reaps
  first.

Entries are any objects with mutable ``expires`` and ``filed``
attributes; owners refresh them **in place** (assign a later ``expires``)
instead of re-``put``-ting them, which is safe by the store invariant:

    with a simulator attached, every key in ``entries`` with a finite
    deadline is filed under one slot (filed on the entry; a lazily
    reaped key's filing held until its bucket is due); that slot's
    bucket is pending, holds the key, and has exactly one armed engine
    timer, at ``slot * RECLAIM_GRANULE`` — later than the filed deadline.

:meth:`put` files only a key not filed yet (a replacing entry inherits
its filing), a due bucket re-files or deletes, and :meth:`pop` /
:meth:`reap` / :meth:`clear` forget what they remove — nothing to
cancel: a key left in a bucket is skipped when the bucket comes due
(``tests/test_table_model.py`` checks the invariant after every step).

The hit path belongs to the owning table: it probes :attr:`AgingStore
.entries` itself, compares ``expires > now``, and enters :meth:`get`
only to reap an entry it found expired.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Tuple, TYPE_CHECKING)

if TYPE_CHECKING:
    from repro.netsim.engine import Simulator

#: Callback invoked as ``on_reap(key, entry)`` when an expired entry is
#: reclaimed (lazily, by sweep, or by a due bucket).
ReapHook = Callable[[Hashable, Any], None]

#: Width of a reclamation bucket in simulated seconds. A power of two,
#: so ``slot * RECLAIM_GRANULE`` is exact and strictly after every
#: deadline filed under ``slot``.
RECLAIM_GRANULE = 0.25

_INF = float("inf")


class AgingStore:
    """Key → entry map with deadline-based expiry.

    Works standalone (pass ``sim=None``): lookups reap lazily and
    :meth:`reap` offers an explicit sweep — exactly what direct
    data-structure tests want. With a simulator attached, one engine
    timer per non-empty deadline bucket reclaims expired entries as
    simulated time passes.
    """

    __slots__ = ("entries", "_orphans", "_buckets", "_sim", "_on_reap")

    def __init__(self, sim: Optional["Simulator"] = None,
                 on_reap: Optional[ReapHook] = None):
        #: The raw key → entry dict (expired entries included). Owners
        #: may *read* it on their hit path; every mutation goes through
        #: the methods below so the bucket invariant holds.
        self.entries: Dict[Hashable, Any] = {}
        #: key → slot of a key reaped lazily while its bucket is pending.
        self._orphans: Dict[Hashable, int] = {}
        #: slot → keys filed there; one armed engine timer per slot.
        #: May hold keys since popped or re-filed — skipped when due.
        self._buckets: Dict[int, List[Hashable]] = {}
        self._sim = sim
        self._on_reap = on_reap

    # -- lookups -------------------------------------------------------------

    def get(self, key: Hashable, now: float) -> Optional[Any]:
        """The live entry for *key*, or None (expired entries are reaped)."""
        entry = self.entries.get(key)
        if entry is None or entry.expires > now:
            return entry
        del self.entries[key]
        if self._sim is not None and entry.filed:
            self._orphans[key] = entry.filed
        if self._on_reap is not None:
            self._on_reap(key, entry)
        return None

    # -- mutation ------------------------------------------------------------

    def put(self, key: Hashable, entry: Any) -> Any:
        """Insert or replace the entry for *key*, filing a key not filed
        yet; the new entry of a filed key inherits the filing."""
        if self._sim is not None:
            old = self.entries.get(key)
            entry.filed = (self._orphans.pop(key, 0) if old is None
                           else old.filed)
            if not entry.filed:
                self._file(key, entry)
        self.entries[key] = entry
        return entry

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove and return the raw entry for *key* (None when absent).

        An explicit removal, not an expiry: the reap hook is NOT called.
        """
        self._orphans.pop(key, None)
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
        self._orphans.clear()
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
            if self._on_reap is not None:
                self._on_reap(key, entry)
        return len(stale)

    def _file(self, key: Hashable, entry: Any) -> None:
        """File *key* under the bucket that ends strictly after *entry*'s
        deadline (or after now, for an entry expired on arrival) and note
        it in ``entry.filed`` — 0 for a deadline that never comes due."""
        expires = entry.expires
        if expires == _INF:
            entry.filed = 0
            return
        sim = self._sim
        now = sim._now
        slot = int((expires if expires > now else now) / RECLAIM_GRANULE) + 1
        entry.filed = slot
        bucket = self._buckets.get(slot)
        if bucket is None:
            self._buckets[slot] = [key]
            sim.schedule_timer(slot * RECLAIM_GRANULE - now,
                               self._bucket_due, slot)
        else:
            bucket.append(key)

    def _bucket_due(self, slot: int) -> None:
        entries = self.entries
        now = self._sim._now
        for key in self._buckets.pop(slot):
            entry = entries.get(key)
            if entry is None:   # reaped lazily, or popped
                if self._orphans.get(key) == slot:
                    del self._orphans[key]
            elif entry.filed != slot:
                continue        # popped or re-filed since; not ours
            elif entry.expires <= now:
                del entries[key]
                if self._on_reap is not None:
                    self._on_reap(key, entry)
            else:
                # Refreshed (or replaced) since it was filed: one bucket
                # visit per bucket crossed, however hot the entry is.
                self._file(key, entry)

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
                f"buckets={len(self._buckets)}>")
