"""Frame-level counting and observation.

Each link direction keeps its own statistics registers, bumped where
the event happens (:mod:`repro.netsim.link`): one :class:`Registers`
record per ethertype in the direction's :class:`Tallies`. Each link
registers its two directions with its simulator's :class:`Tracer`,
whose totals are sums over them taken when read; a register reading 0
is absent from every view. A :class:`TraceRecord` is built only for
attached listeners.
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
#: The fields of a :class:`Registers` record: frames per kind, then
#: wire bytes sent.
TALLIES = KINDS + ("sent_bytes",)


class Registers:
    """One link direction's statistics registers for one ethertype."""

    __slots__ = TALLIES

    def __init__(self):
        self.sent = self.delivered = self.drop_queue = 0
        self.drop_link_down = self.sent_bytes = 0


class Tallies(dict):
    """ethertype -> :class:`Registers`; subscripting an ethertype not
    seen yet makes its record (the first send, or a delivery imported
    across a shard cut)."""

    __slots__ = ()

    def __missing__(self, ethertype: int) -> Registers:
        registers = self[ethertype] = Registers()
        return registers


_BROADCAST_STR = str(BROADCAST)
_new_record = tuple.__new__


class TraceRecord(namedtuple(
        "_TraceFields", "kind time link frame_uid ethertype size src dst "
        "direction")):
    """One link-level event: an immutable, tuple-backed value.

    The record stores the addresses it is handed (:class:`MAC` objects
    on the link path) and renders them only when :attr:`src` /
    :attr:`dst` are read — both are always ``str``, equal to
    ``str(mac)``. Listeners that skip most records (the loop-freedom
    count) therefore never pay for string formatting of the records
    they skip. Equality and hashing go by the rendered field values, so
    a record built from MACs equals one built from their strings.

    A record also holds the link direction the event happened on;
    :attr:`direction` renders it as the sending port's name (the key of
    :meth:`Link.stats`), or None if the record was given none.
    """

    __slots__ = ()

    @property
    def src(self) -> str:
        return str(self[6])

    @property
    def dst(self) -> str:
        return str(self[7])

    @property
    def direction(self) -> Optional[str]:
        direction = self[8]
        return None if direction is None else direction.from_port.name

    @property
    def is_broadcast(self) -> bool:
        """Whether the frame was sent to ff:ff:ff:ff:ff:ff (renders
        nothing)."""
        dst = self[7]
        return dst == BROADCAST or dst == _BROADCAST_STR

    def _values(self) -> tuple:
        return self[:6] + (str(self[6]), str(self[7]), self.direction)

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

    def record(self, kind: str, time: float, link: str, frame_uid: int,
               ethertype: int, size: int, src, dst, direction) -> None:
        """Hand one link-level event to every listener (links call this
        after their own tally bump). *src*/*dst* may be MAC objects or
        strings, and *direction* the link direction, all rendered only
        when the record's fields are read."""
        rec = _new_record(TraceRecord, (kind, time, link, frame_uid,
                                        ethertype, size, src, dst,
                                        direction))
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
        """One of :data:`TALLIES` per ethertype, over every direction;
        an ethertype whose registers all read 0 is absent."""
        total: Dict[int, int] = {}
        for direction in self._directions:
            for ethertype, registers in direction.tallies.items():
                value = getattr(registers, name)
                if value:
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
        """Zero every registered direction's registers, in place."""
        for direction in self._directions:
            for registers in direction.tallies.values():
                registers.__init__()

    def __repr__(self) -> str:
        return (f"<Tracer sent={self.frames_sent} "
                f"delivered={self.frames_delivered} "
                f"dropped={self.frames_dropped}>")
