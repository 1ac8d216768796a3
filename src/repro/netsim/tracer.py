"""Frame-level tracing and counting.

A :class:`Tracer` observes every link-level transmit, delivery and drop.
Experiments use it to count broadcast overhead, measure path latencies
and assert loop-freedom (a looping frame produces unbounded deliveries,
which the tests bound).
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from typing import Callable, Dict, List, Optional

from repro.frames.mac import BROADCAST

SENT = "sent"
DELIVERED = "delivered"
DROP_QUEUE = "drop_queue"
DROP_LINK_DOWN = "drop_link_down"
DROP_TTL = "drop_ttl"

KINDS = (SENT, DELIVERED, DROP_QUEUE, DROP_LINK_DOWN, DROP_TTL)


_BROADCAST_STR = str(BROADCAST)
_new_record = tuple.__new__


class TraceRecord(namedtuple(
        "_TraceFields", "kind time link frame_uid ethertype size src dst")):
    """One link-level event: an immutable, tuple-backed value.

    The record stores the addresses it is handed (:class:`MAC` objects
    on the link path) and renders them only when :attr:`src` /
    :attr:`dst` are read — both are always ``str``, equal to
    ``str(mac)``. Consumers that skip most records (per-link byte sums,
    the loop-freedom check) therefore never pay for string formatting
    of the records they skip. Equality and hashing go by the rendered
    field values, so a record built from MACs equals one built from
    their strings.
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
    """Collects link-level events and aggregates counters.

    Record retention is optional (``keep_records=False`` keeps only the
    counters) so long benchmark runs stay memory-bounded.
    """

    def __init__(self, keep_records: bool = True):
        self.records: List[TraceRecord] = []
        #: The one stored tally (totals are summed from it on read), like
        #: a port's statistics registers: ``by_ethertype[kind][ethertype]``,
        #: ethertypes in first-seen order. :meth:`reset` empties the five
        #: dicts in place, so links cache the ones they bump on every hop.
        self.by_ethertype: Dict[str, Dict[int, int]] = {
            kind: {} for kind in KINDS}
        self._listeners: List[Callable[[TraceRecord], None]] = []
        #: True while no record is ever materialised (no retention, no
        #: listeners): callers on the per-hop fast path may then bump
        #: :attr:`by_ethertype` directly instead of paying a
        #: :meth:`record` call per link event. Kept in sync by the
        #: keep_records setter and add_listener.
        self.count_only = not keep_records
        self._keep_records = keep_records

    @property
    def keep_records(self) -> bool:
        """Whether records are retained; assignable mid-run."""
        return self._keep_records

    @keep_records.setter
    def keep_records(self, value: bool) -> None:
        self._keep_records = value
        self.count_only = not value and not self._listeners

    def record(self, kind: str, time: float, link: str, frame_uid: int,
               ethertype: int, size: int, src, dst) -> None:
        """Record one link-level event (called by links).

        *src*/*dst* may be MAC objects or strings; the record keeps
        them as handed in and renders them only when its ``src``/``dst``
        are read, so a materialised record costs one tuple allocation
        on top of the counters.
        """
        tally = self.by_ethertype[kind]
        tally[ethertype] = tally.get(ethertype, 0) + 1
        if self.count_only:
            return
        rec = _new_record(TraceRecord, (kind, time, link, frame_uid,
                                        ethertype, size, src, dst))
        if self._keep_records:
            self.records.append(rec)
        for listener in self._listeners:
            listener(rec)

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke *listener* for every future record."""
        self._listeners.append(listener)
        self.count_only = False

    # -- queries -------------------------------------------------------------

    def count(self, kind: str, ethertype: Optional[int] = None) -> int:
        """Number of events of *kind*, optionally for one ethertype."""
        tally = self.by_ethertype[kind]
        if ethertype is None:
            return sum(tally.values())
        return tally.get(ethertype, 0)

    @property
    def counts(self) -> Counter:
        """Events per kind, summed on read into a fresh Counter (writing
        to it changes nothing); a kind never seen is absent, reads 0."""
        return Counter({kind: sum(tally.values())
                        for kind, tally in self.by_ethertype.items()
                        if tally})

    @property
    def frames_sent(self) -> int:
        return self.count(SENT)

    @property
    def frames_delivered(self) -> int:
        return self.count(DELIVERED)

    @property
    def frames_dropped(self) -> int:
        return (self.count(DROP_QUEUE) + self.count(DROP_LINK_DOWN)
                + self.count(DROP_TTL))

    def deliveries_for(self, frame_uid: int) -> List[TraceRecord]:
        """All delivery records for one logical frame (needs records)."""
        return [rec for rec in self.records
                if rec.kind == DELIVERED and rec.frame_uid == frame_uid]

    def link_load_bytes(self, ethertype: Optional[int] = None
                        ) -> Dict[str, int]:
        """Total bytes carried per link, optionally for one ethertype
        (needs records)."""
        load: Dict[str, int] = defaultdict(int)
        for rec in self.records:
            if rec.kind == SENT and (ethertype is None
                                     or rec.ethertype == ethertype):
                load[rec.link] += rec.size
        return dict(load)

    def reset(self) -> None:
        """Clear all records and counters."""
        self.records.clear()
        for tally in self.by_ethertype.values():
            tally.clear()

    def __repr__(self) -> str:
        return (f"<Tracer sent={self.frames_sent} "
                f"delivered={self.frames_delivered} "
                f"dropped={self.frames_dropped}>")
