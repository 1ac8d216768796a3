"""One invariant checker for a live simulator.

``attach(sim)`` adds one tracer listener; nothing in the simulator
imports this module. A violation detaches the checker and raises
:class:`~repro.netsim.errors.InvariantError` under one of these names;
:meth:`Checker.close` raises it again.

Per record: ``loop`` — no link direction carries one broadcast uid
twice (the paper's loop-freedom claim); ``dead-link`` — nothing is
delivered while its link is down; ``fifo`` — each direction delivers in
send order; ``tally`` — the record's register was bumped once.

Per :meth:`Checker.audit`, at any point between events: ``tally`` —
each register reads its last record's count, or was zeroed since by
``Tracer.reset``; ``conservation`` — the uids a direction's records
left in flight are its ``pending`` frames' (``sent == delivered +
in-flight drops + len(pending)``); ``in-flight`` — every unfired
delivery on the heap carries its direction's current flight token, and
a direction has exactly ``len(pending)`` of them; ``drain`` — a
direction's queue is non-empty exactly when its drain event is armed
(the transmitter's busy test, :mod:`repro.netsim.link`);
``pending-count`` — the engine's pending count is its heap's; ``aging``
— every :class:`AgingStore` seen with a bucket timer keeps the bucket
invariant of :mod:`repro.netsim.aging`, and a key filed since the
previous audit was filed from a deadline it held (owners only refresh
deadlines later) and, if its deadline held still, had not expired.

Across a shard cut ``fifo`` and ``conservation`` skip a direction that
exports or whose sender is a ghost; ``in-flight`` covers the import side.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Hashable, Optional

from repro.frames.mac import BROADCAST
from repro.netsim import tracer as trc
from repro.netsim.tracer import DELIVERED, DROP_LINK_DOWN, SENT
from repro.netsim.aging import RECLAIM_GRANULE, AgingStore
from repro.netsim.engine import PRIORITY_LATE, Simulator
from repro.netsim.errors import InvariantError
from repro.netsim.link import _Flight


class _Watch:
    """What the checker knows of one link direction."""

    def __init__(self, direction, snapshot: bool):
        link = direction.from_port.link
        #: The direction's link; None once detached (it went down first).
        self.link = link if link is not None and link._dirs.get(
            direction.from_port) is direction else None
        #: uids in flight, oldest first (unused across a shard cut).
        self.in_flight: Deque[int] = deque(
            frame.uid for frame in direction.pending if snapshot)
        self.broadcasts = set()         # broadcast uids carried
        #: kind -> ethertype -> the register's value at the last record.
        self.tallies = {kind: {ethertype: getattr(registers, kind)
                               for ethertype, registers
                               in direction.tallies.items() if snapshot}
                        for kind in trc.KINDS}


class Checker:
    """The invariants of one simulator; see the module docstring."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._recent: Deque[trc.TraceRecord] = deque(maxlen=64)  # evidence
        self._watches = {direction: _Watch(direction, True)
                         for direction in sim.tracer._directions}
        #: store -> {key: (entry, or None for an orphan; slot; deadline)}
        #: as of the previous audit (None before the store's first).
        self._stores: Dict[AgingStore, Optional[Dict[Hashable, tuple]]] = {}
        self._audited_at = float("-inf")
        self._attached = True
        self.error: Optional[InvariantError] = None     # the first one
        sim.tracer.add_listener(self._on_record)

    def _fail(self, invariant: str, message: str, uid=None, direction=None):
        self._detach()
        self.error = InvariantError(
            invariant, message, uid, direction and direction.from_port.name,
            self.sim._now, [rec for rec in self._recent if rec[3] == uid])
        raise self.error

    def _on_record(self, rec: trc.TraceRecord) -> None:
        self._recent.append(rec)
        kind, _, _, uid, ethertype, _, _, dst, direction = rec
        watch = self._watches.get(direction)
        if watch is None:   # registered after attach: every bump recorded
            watch = self._watches[direction] = _Watch(direction, False)
        last = watch.tallies[kind]
        count = getattr(direction.tallies.get(ethertype), kind, 0)
        if count != last.get(ethertype, 0) + 1 and count != 1:
            self._fail("tally", f"{kind} register reads {count}", uid,
                       direction)
        last[ethertype] = count
        if kind == SENT:
            if dst == BROADCAST:
                if uid in watch.broadcasts:
                    self._fail("loop", "broadcast repeated", uid, direction)
                watch.broadcasts.add(uid)
            if direction.export is None:    # an export leaves the engine
                watch.in_flight.append(uid)
        elif kind == DELIVERED:
            if watch.link is None or not watch.link.up:
                self._fail("dead-link", "delivered, link down", uid, direction)
            if not direction.from_port.node.shard_ghost:    # not imported
                if not watch.in_flight or watch.in_flight[0] != uid:
                    self._fail("fifo", "out of send order", uid, direction)
                watch.in_flight.popleft()
        elif (kind == DROP_LINK_DOWN and watch.in_flight
              and watch.in_flight[0] == uid):
            watch.in_flight.popleft()   # take_down drops queued ones first

    def audit(self) -> None:
        """Run the between-events checks now."""
        sim, now = self.sim, self.sim._now
        live = sorted(entry for entry in sim._queue if not entry[3].cancelled)
        if len(live) != sim.pending_events:
            self._fail("pending-count", f"{len(live)} unfired events, "
                       f"{sim.pending_events} derived")
        deliveries: Counter = Counter()
        armed: Dict[AgingStore, Counter] = {}
        for _time, priority, _seq, event in live:
            if type(event) is _Flight:
                (direction,) = event.args
                if direction.flight is not event:
                    self._fail("in-flight", "a delivery holds a stale "
                               "flight token", direction=direction)
                deliveries[direction] += 1
            elif getattr(event.callback, "__func__",
                         None) is AgingStore._bucket_due:
                (slot,) = event.args
                if not (event.time == slot * RECLAIM_GRANULE > now
                        and priority == PRIORITY_LATE):
                    self._fail("aging", f"bucket {slot} armed for "
                               f"t={event.time!r}, priority {priority}")
                store = event.callback.__self__
                self._stores.setdefault(store, None)
                armed.setdefault(store, Counter())[slot] += 1
        for direction in sim.tracer._directions:
            pending = direction.pending
            if len(pending) != deliveries.pop(direction, 0):
                self._fail("in-flight", "pending is not its unfired heap "
                           "entries", direction=direction)
            if bool(direction.queue) != (direction.drain_event is not None):
                self._fail("drain", f"{len(direction.queue)} frames queued, "
                           f"drain event {direction.drain_event}",
                           direction=direction)
            watch = self._watches.get(direction) or _Watch(direction, False)
            for kind, last in watch.tallies.items():
                if any(0 != getattr(registers, kind) != last.get(ethertype, 0)
                       for ethertype, registers in direction.tallies.items()):
                    self._fail("tally", f"{kind} bumped with no record",
                               direction=direction)
            recorded = list(watch.in_flight)
            uids = [frame.uid for frame in pending]
            if uids != recorded and direction.export is None \
                    and not direction.from_port.node.shard_ghost:
                self._fail("conservation", f"pending holds {uids}, records "
                           f"say {recorded}", direction=direction)
        if deliveries:
            self._fail("in-flight", "a delivery is in no pending")
        slots = set().union(*armed.values())    # armed, in any store
        for store in self._stores:
            self._audit_store(store, armed.get(store, {}), slots, now)
        self._audited_at = now

    def _audit_store(self, store: AgingStore, armed: Counter, slots: set,
                     now: float):
        buckets, granule = store._buckets, RECLAIM_GRANULE
        shared = store._waiting
        waiting = [slot for slot, _, due in shared if due.__self__ is store]
        if (armed.keys() | set(waiting) != buckets.keys()
                or len(armed) + len(waiting) != len(buckets)
                or set(armed.values()) - {1} or shared and not (
                    shared.armed_to in slots
                    and shared.armed_to < min(shared)[0])):
            self._fail("aging", f"timers {armed} and waiting {waiting} for "
                       f"buckets {list(buckets)}, armed to {shared.armed_to}")
        before, history = self._stores[store], {}
        for key, slot in store._orphans.items():
            if key in store.entries or key not in buckets.get(slot, ()):
                self._fail("aging", f"orphan {key!r} not in bucket {slot}")
            history[key] = (None, slot, None)
        for key, entry in store.entries.items():
            slot, deadline = entry.filed, entry.expires
            history[key] = (entry, slot, deadline)
            if not slot:        # a deadline that never comes due
                continue
            if key not in buckets.get(slot, ()):
                self._fail("aging", f"key {key!r} not in bucket {slot}")
            old, old_slot, held = (before or {}).get(key, (None, 0, None))
            if before is None or slot == old_slot:  # kept, or inherited
                continue
            if (slot - 1) * granule > max(deadline, now) or (
                    old is entry and held == deadline
                    and not self._audited_at < deadline < slot * granule):
                self._fail("aging", f"key {key!r} (deadline {deadline!r}) "
                           f"misfiled in bucket {slot}")
        self._stores[store] = history

    def _detach(self) -> None:
        if self._attached:
            self._attached = False
            self.sim.tracer.remove_listener(self._on_record)

    def close(self) -> None:
        """Audit, then detach; raise the first violation, if any."""
        if self._attached:
            self.audit()
        self._detach()
        if self.error is not None:
            raise self.error


def attach(sim: Simulator) -> Checker:
    """Check *sim*'s invariants from now on (see the module docstring)."""
    return Checker(sim)
