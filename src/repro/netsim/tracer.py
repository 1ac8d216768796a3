"""Frame-level counting and observation.

Each link direction keeps its own statistics registers, bumped where
the event happens (:mod:`repro.netsim.link`); each link registers its
two directions with its simulator's :class:`Tracer`, whose totals are
sums over them taken when read. A :class:`TraceRecord` is built only
for attached listeners.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Callable, Dict, List, Optional

from repro.frames.mac import BROADCAST

SENT = "sent"
DELIVERED = "delivered"
DROP_QUEUE = "drop_queue"
DROP_LINK_DOWN = "drop_link_down"

KINDS = (SENT, DELIVERED, DROP_QUEUE, DROP_LINK_DOWN)
#: A registered direction's per-ethertype dicts, by attribute name:
#: frames per kind, then wire bytes sent.
TALLIES = KINDS + ("sent_bytes",)


_BROADCAST_STR = str(BROADCAST)
_new_record = tuple.__new__


class TraceRecord(namedtuple(
        "_TraceFields", "kind time link frame_uid ethertype size src dst")):
    """One link-level event: an immutable, tuple-backed value.

    The record stores the addresses it is handed (:class:`MAC` objects
    on the link path) and renders them only when :attr:`src` /
    :attr:`dst` are read — both are always ``str``, equal to
    ``str(mac)``. Listeners that skip most records (the loop-freedom
    count) therefore never pay for string formatting of the records
    they skip. Equality and hashing go by the rendered field values, so
    a record built from MACs equals one built from their strings.
    """

    __slots__ = ()

    @property
    def src(self) -> str:
        return str(self[6])

    @property
    def dst(self) -> str:
        return str(self[7])

    @property
    def is_broadcast(self) -> bool:
        """Whether the frame was sent to ff:ff:ff:ff:ff:ff (renders
        nothing)."""
        dst = self[7]
        return dst == BROADCAST or dst == _BROADCAST_STR

    def _values(self) -> tuple:
        return self[:6] + (str(self[6]), str(self[7]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return self._values() == other._values()

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return self._values() != other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class Tracer:
    """Sums the registered link directions' tallies on read and hands
    records to listeners; stores no count and no record itself."""

    def __init__(self):
        #: Every direction of every link built on this simulator; never
        #: pruned, so a detached link's frames stay in the totals.
        self._directions: List[object] = []
        #: Links cache this list (never rebound) and build a record
        #: only while it is non-empty.
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def register(self, *directions) -> None:
        """Add link directions to the totals (called by links)."""
        self._directions.extend(directions)

    @property
    def count_only(self) -> bool:
        """True while no listener is attached: no record is built."""
        return not self._listeners

    def record(self, kind: str, time: float, link: str, frame_uid: int,
               ethertype: int, size: int, src, dst) -> None:
        """Hand one link-level event to every listener (links call this
        after their own tally bump). *src*/*dst* may be MAC objects or
        strings, rendered only when the record's fields are read."""
        rec = _new_record(TraceRecord, (kind, time, link, frame_uid,
                                        ethertype, size, src, dst))
        for listener in self._listeners:
            listener(rec)

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke *listener* for every future record."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[TraceRecord], None]
                        ) -> None:
        """Stop invoking *listener* (ValueError if it is not attached)."""
        self._listeners.remove(listener)

    # -- queries (sums taken on read; writing to a result changes nothing)

    def tally(self, name: str) -> Dict[int, int]:
        """One of :data:`TALLIES` per ethertype, over every direction."""
        total: Dict[int, int] = {}
        for direction in self._directions:
            for ethertype, value in getattr(direction, name).items():
                total[ethertype] = total.get(ethertype, 0) + value
        return total

    @property
    def by_ethertype(self) -> Dict[str, Dict[int, int]]:
        return {kind: self.tally(kind) for kind in KINDS}

    def count(self, kind: str, ethertype: Optional[int] = None) -> int:
        """Number of events of *kind*, optionally for one ethertype."""
        tally = self.tally(kind)
        return sum(tally.values()) if ethertype is None \
            else tally.get(ethertype, 0)

    @property
    def counts(self) -> Counter:
        """Events per kind; a kind never seen is absent (reads 0)."""
        return +Counter({kind: self.count(kind) for kind in KINDS})

    @property
    def frames_sent(self) -> int:
        return self.count(SENT)

    @property
    def frames_delivered(self) -> int:
        return self.count(DELIVERED)

    @property
    def frames_dropped(self) -> int:
        return self.count(DROP_QUEUE) + self.count(DROP_LINK_DOWN)

    def reset(self) -> None:
        """Zero every registered direction's tallies, in place."""
        for direction in self._directions:
            for name in TALLIES:
                getattr(direction, name).clear()

    def __repr__(self) -> str:
        return (f"<Tracer sent={self.frames_sent} "
                f"delivered={self.frames_delivered} "
                f"dropped={self.frames_dropped}>")
