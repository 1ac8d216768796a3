"""The discrete-event simulation engine.

Two scheduling structures cooperate behind one deterministic clock:

* **Event heap** — the primary queue. Events fire in (time, priority,
  sequence) order, so two runs with the same seed replay identically —
  which the ARP-Path tests rely on, because path selection is literally
  a race between flooded frame copies.
* **Timer wheel** (:class:`TimerWheel`) — a two-level hierarchical
  wheel for housekeeping timers that may be cancelled before they fire
  (aging-store deadline buckets, churn timelines, the memory sampler).
  Wheel timers are bucketed
  by coarse time slot and only *poured* into the heap just before their
  bucket's window executes; a timer cancelled early therefore costs O(1)
  and never touches the heap at all. Pouring happens strictly before any
  event at or past the bucket's window fires, so the global
  (time, priority, sequence) order — and with it determinism — is
  preserved exactly as if every timer had been heap-scheduled.

The engine also keeps an O(1) :attr:`Simulator.pending_events` counter
(maintained incrementally on schedule/fire/cancel) and offers
:meth:`Simulator.schedule_bulk` for batched workload injection (one
O(n) heapify instead of n heap pushes).

Heap entries are ``(time, priority, seq, event)`` tuples rather than
bare :class:`Event` objects: heap sifts compare machine floats and ints
in C, with no Python frame per comparison on any push/pop of the hot
loop. ``seq`` is unique, so a comparison never falls through to the
event object itself — :class:`Event` defines no ordering. They are
popped in one loop, :meth:`Simulator._run`, behind :meth:`Simulator.run`
(closed bound) and :meth:`Simulator.run_below` (open bound).
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.netsim.errors import RecordRetentionError, SchedulingError
from repro.netsim.tracer import Tracer

#: Priority for ordinary data-plane events.
PRIORITY_NORMAL = 0
#: Priority for control-plane housekeeping that must run after the data
#: plane at the same instant (e.g. table entry reclamation).
PRIORITY_LATE = 10
#: Priority for events that must precede the data plane at the same
#: instant (e.g. carrier-loss notifications).
PRIORITY_EARLY = -10

_INF = float("inf")


class Event:
    """A scheduled callback. Returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "_sim")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                # The simulator clears its reference once the event has
                # fired, so a live reference means the event still counts
                # as pending.
                sim._pending -= 1
                self._sim = None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} prio={self.priority} {state}>"


class TimerWheel:
    """A two-level hierarchical timer wheel feeding the event heap.

    Timers land in *fine* buckets of ``resolution`` seconds when they
    are due within one wheel span (``resolution * slots``), otherwise in
    *coarse* buckets one span wide. As the clock approaches a bucket,
    coarse buckets cascade into fine ones and fine buckets pour their
    surviving timers into the simulator's heap, which restores the exact
    (time, priority, sequence) order.

    The payoff is cancellation: a timer cancelled before its bucket
    is poured costs a flag write — no heap traffic, no O(log n)
    anything. Only timers that actually come due ever reach the heap.
    (Table aging no longer cancels: :mod:`repro.netsim.aging` arms one
    never-cancelled timer per deadline bucket.)
    """

    __slots__ = ("resolution", "span", "_fine", "_coarse", "_size",
                 "_next_due")

    def __init__(self, resolution: float = 0.25, slots: int = 64):
        if resolution <= 0:
            raise SchedulingError(
                f"wheel resolution must be > 0: {resolution}")
        if slots < 1:
            raise SchedulingError(f"wheel needs at least one slot: {slots}")
        self.resolution = resolution
        self.span = resolution * slots
        self._fine: Dict[int, List[Event]] = {}
        self._coarse: Dict[int, List[Event]] = {}
        #: Timers held (including cancelled ones not yet reaped).
        self._size = 0
        #: Earliest bucket start time, or inf when empty.
        self._next_due = _INF

    def __len__(self) -> int:
        return self._size

    @property
    def next_due(self) -> float:
        """Start of the earliest non-empty bucket (inf when empty)."""
        return self._next_due

    @staticmethod
    def _slot_for(time: float, width: float) -> int:
        """The bucket index for *time*, guaranteeing start <= time.

        Plain ``int(time / width)`` can round the quotient up when the
        boundary is not exactly representable (e.g. 1.7 / 0.1 == 17.0,
        but 17 * 0.1 > 1.7), which would file a timer in a bucket that
        starts after its own fire time — and pour() would then skip it
        at its exact deadline, breaking the global event order. Clamp
        the index down so every bucket contains only timers at or after
        its start.
        """
        slot = int(time / width)
        if slot * width > time:
            slot -= 1
        return slot

    def insert(self, event: Event, now: float) -> None:
        """File *event* into the wheel (no heap interaction)."""
        if event.time - now < self.span:
            slot = self._slot_for(event.time, self.resolution)
            start = slot * self.resolution
            bucket = self._fine.get(slot)
            if bucket is None:
                self._fine[slot] = [event]
            else:
                bucket.append(event)
        else:
            slot = self._slot_for(event.time, self.span)
            start = slot * self.span
            bucket = self._coarse.get(slot)
            if bucket is None:
                self._coarse[slot] = [event]
            else:
                bucket.append(event)
        self._size += 1
        if start < self._next_due:
            self._next_due = start

    def pour(self, horizon: float, queue: List[tuple]) -> None:
        """Move every timer that could fire by *horizon* into *queue*.

        Buckets whose window starts at or before *horizon* are drained;
        cancelled timers are discarded, live ones are heap-pushed (as
        the heap's ``(time, priority, seq, event)`` entries) so the
        caller sees them in exact global order. Coarse buckets cascade
        into fine buckets (or the heap) on the way.
        """
        resolution = self.resolution
        if self._coarse:
            span = self.span
            for slot in [s for s in self._coarse if s * span <= horizon]:
                for event in self._coarse.pop(slot):
                    if event.cancelled:
                        self._size -= 1
                        continue
                    fine_slot = self._slot_for(event.time, resolution)
                    if fine_slot * resolution <= horizon:
                        self._size -= 1
                        heapq.heappush(queue, (event.time, event.priority,
                                               event.seq, event))
                    else:
                        self._fine.setdefault(fine_slot, []).append(event)
        if self._fine:
            for slot in [s for s in self._fine if s * resolution <= horizon]:
                for event in self._fine.pop(slot):
                    self._size -= 1
                    if not event.cancelled:
                        heapq.heappush(queue, (event.time, event.priority,
                                               event.seq, event))
        self._recompute_next_due()

    def _recompute_next_due(self) -> None:
        due = _INF
        if self._fine:
            due = min(self._fine) * self.resolution
        if self._coarse:
            coarse_due = min(self._coarse) * self.span
            if coarse_due < due:
                due = coarse_due
        self._next_due = due

    def _iter_events(self) -> Iterable[Event]:
        for bucket in self._fine.values():
            yield from bucket
        for bucket in self._coarse.values():
            yield from bucket

    def __repr__(self) -> str:
        return (f"<TimerWheel size={self._size} "
                f"next_due={self._next_due:.3f}>")


class Periodic:
    """A repeating timer created by :meth:`Simulator.schedule_periodic`."""

    __slots__ = ("_sim", "_interval", "_callback", "_args", "_event",
                 "_stopped", "_jitter")

    def __init__(self, sim: "Simulator", interval: float,
                 callback: Callable[..., Any], args: tuple, jitter: float):
        if interval <= 0:
            raise SchedulingError(f"periodic interval must be > 0: {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._args = args
        self._jitter = jitter
        self._stopped = False
        self._event = sim.schedule(self._next_delay(), self._fire)

    def _next_delay(self) -> float:
        if self._jitter:
            return self._interval + self._sim.rng.uniform(0, self._jitter)
        return self._interval

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback(*self._args)
        if not self._stopped:
            self._event = self._sim.schedule(self._next_delay(), self._fire)

    def stop(self) -> None:
        """Stop the timer (idempotent)."""
        self._stopped = True
        self._event.cancel()

    @property
    def interval(self) -> float:
        return self._interval


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seeds the simulator-owned :class:`random.Random`; all stochastic
        behaviour (jitter, workloads) must draw from :attr:`rng` so runs
        are reproducible.
    trace_hops:
        When true, frames accumulate per-hop trace records as they
        traverse nodes (used by path-measurement experiments).
    keep_trace_records:
        Ignored when false, kept for old callers: the :attr:`tracer`
        retains no records. True raises :class:`RecordRetentionError`;
        ``repro.testing.record_trace(sim)`` collects them instead.
    """

    def __init__(self, seed: int = 0, trace_hops: bool = False,
                 keep_trace_records: bool = False):
        if keep_trace_records:
            raise RecordRetentionError(
                "the tracer keeps no records; attach a listener instead, "
                "e.g. repro.testing.record_trace(sim)")
        #: Heap of (time, priority, seq, Event) — see the module docs.
        self._queue: List[tuple] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._pending = 0
        self.rng = random.Random(seed)
        self.trace_hops = trace_hops
        self.tracer = Tracer()
        self.events_processed = 0
        self.wheel = TimerWheel()

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any,
                 priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule *callback(\\*args)* to run *delay* seconds from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past: {delay}")
        time = self._now + delay
        seq = next(self._seq)
        # Event filled via __new__ + slot writes: this is the hottest
        # allocation site in the simulator (once per frame hop), and
        # skipping the __init__ call is worth the inelegance.
        event = Event.__new__(Event)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._sim = self
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._pending += 1
        return event

    def at(self, time: float, callback: Callable[..., Any], *args: Any,
           priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule *callback* at absolute simulation *time*."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} (now is {self._now})")
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, args, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._pending += 1
        return event

    def schedule_timer(self, delay: float, callback: Callable[..., Any],
                       *args: Any, priority: int = PRIORITY_LATE) -> Event:
        """Schedule a wheel-managed timer *delay* seconds from now.

        Semantically identical to :meth:`schedule` — same determinism,
        same :class:`Event` handle — but filed on the timer wheel, which
        makes it the right call for housekeeping that must not crowd
        the heap (aging-store deadline buckets, churn timelines) and
        for timers likely to be cancelled before they fire. Timers
        default to
        :data:`PRIORITY_LATE` so same-instant data-plane events run
        first.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past: {delay}")
        event = Event(self._now + delay, priority, next(self._seq),
                      callback, args, self)
        self.wheel.insert(event, self._now)
        self._pending += 1
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any,
                  priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule *callback* at the current instant (after this event)."""
        return self.schedule(0.0, callback, *args, priority=priority)

    def schedule_periodic(self, interval: float, callback: Callable[..., Any],
                          *args: Any, jitter: float = 0.0) -> Periodic:
        """Run *callback* every *interval* seconds until stopped.

        A positive *jitter* adds a uniform random extra delay in
        ``[0, jitter)`` before each firing (drawn from :attr:`rng`).
        """
        return Periodic(self, interval, callback, args, jitter)

    def schedule_bulk(self, specs: Iterable[Sequence],
                      priority: int = PRIORITY_NORMAL) -> List[Event]:
        """Schedule a batch of callbacks in one shot.

        *specs* is an iterable of ``(delay, callback, *args)`` tuples.
        The whole batch is appended and heapified once — O(n + q) for n
        new events on a queue of q — instead of n individual O(log q)
        pushes, which is what bulk workload injection (traffic matrices,
        benchmark frame trains) wants. Returns the created events in
        input order.
        """
        now = self._now
        take_seq = self._seq
        events: List[Event] = []
        entries: List[tuple] = []
        for spec in specs:
            delay = spec[0]
            if delay < 0:
                raise SchedulingError(f"cannot schedule in the past: {delay}")
            time = now + delay
            seq = next(take_seq)
            event = Event(time, priority, seq, spec[1], tuple(spec[2:]),
                          self)
            events.append(event)
            entries.append((time, priority, seq, event))
        if events:
            self._queue.extend(entries)
            heapq.heapify(self._queue)
            self._pending += len(events)
        return events

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event. Returns False when none remain."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed > before

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, *until* is reached, or
        *max_events* have fired.

        When *until* is given the clock is advanced to exactly *until*
        even if the queue drained earlier, so periodic processes see a
        consistent end time. Stopping on *max_events* leaves the clock
        on the last fired event.
        """
        if until is None:
            self._run(_INF, True, max_events)
        elif self._run(until, True, max_events) and self._now < until:
            self._now = until

    def run_for(self, duration: float) -> None:
        """Run for *duration* seconds of simulated time from now."""
        self.run(until=self._now + duration)

    def run_below(self, bound: float) -> None:
        """Run every event strictly before *bound*, then jump to *bound*.

        The open-interval form of :meth:`run` (which is inclusive of
        *until*): this is the window primitive the sharded runtime
        (:mod:`repro.netsim.shard`) needs, because a conservative
        synchronization window guarantees knowledge of remote events
        *below* the safe time, not at it — an event at exactly the safe
        time may still be beaten by a remote frame arriving at that same
        instant with an earlier tie-break. A call with ``bound <= now``
        is a no-op.
        """
        if bound > self._now:
            self._run(bound, False, None)
            self._now = bound

    def _run(self, limit: float, inclusive: bool,
             max_events: Optional[int]) -> bool:
        """The one event loop: fire every event before *limit* — and at
        it when *inclusive* — in (time, priority, seq) order, leaving
        the clock on the last one. False when *max_events* cut it short.
        """
        # Hot loop: local bindings avoid repeated attribute lookups, the
        # wheel is consulted with one float compare per iteration, and
        # events fire without any per-event allocation.
        queue = self._queue
        wheel = self.wheel
        heappop = heapq.heappop
        fired = 0
        while True:
            if wheel._size:
                horizon = queue[0][0] if queue else wheel._next_due
                if horizon > limit:
                    # Don't drag far-future wheel timers into the heap
                    # just because this slice ends: they would lose the
                    # wheel's O(1) cancellation.
                    horizon = limit
                if wheel._next_due <= horizon:
                    wheel.pour(horizon, queue)
                    if not queue:
                        # Cascade/discard progressed without reaching
                        # the heap; retry at the advanced next_due.
                        continue
            if not queue:
                return True
            event = queue[0][3]
            if event.cancelled:
                heappop(queue)
                continue
            time = event.time
            if time >= limit and (time > limit or not inclusive):
                return True
            if max_events is not None and fired >= max_events:
                return False
            heappop(queue)
            self._now = time
            self.events_processed += 1
            self._pending -= 1
            event._sim = None
            event.callback(*event.args)
            fired += 1

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events — O(1).

        Maintained incrementally: schedule/at/schedule_timer/
        schedule_bulk increment, firing and :meth:`Event.cancel`
        decrement. :meth:`audit_pending_events` cross-checks the counter
        against a full scan.
        """
        return self._pending

    def next_event_time(self) -> float:
        """Earliest timestamp anything could fire at — O(1), conservative.

        The minimum of the heap head and the wheel's next due bucket;
        ``inf`` when both are empty. A cancelled heap head only makes
        the answer *earlier* than the true next event, which is the
        safe direction for its one consumer: the sharded runtime's
        per-window horizon (:mod:`repro.netsim.shard`), where a bound
        computed from an under-estimate is still a valid guarantee.
        """
        queue = self._queue
        head = queue[0][0] if queue else _INF
        if self.wheel._size and self.wheel._next_due < head:
            head = self.wheel._next_due
        return head

    def audit_pending_events(self) -> int:
        """O(n) debug scan of the heap and wheel; asserts it matches the
        incremental counter and returns the count."""
        scanned = sum(1 for entry in self._queue if not entry[3].cancelled)
        scanned += sum(1 for event in self.wheel._iter_events()
                       if not event.cancelled)
        assert scanned == self._pending, (
            f"pending_events counter drifted: counted {scanned}, "
            f"tracked {self._pending}")
        return scanned

    def __repr__(self) -> str:
        return (f"<Simulator t={self._now:.6f} queued={len(self._queue)} "
                f"wheel={self.wheel._size} "
                f"processed={self.events_processed}>")
