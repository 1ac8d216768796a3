"""The discrete-event simulation engine.

One event heap is the only queue. Events fire in (time, priority,
sequence) order, so two runs with the same seed replay identically —
which the ARP-Path tests rely on, because path selection is literally a
race between flooded frame copies. Housekeeping timers (aging-store
deadline buckets, churn timelines, the memory sampler) are ordinary
heap events at :data:`PRIORITY_LATE`, scheduled through
:meth:`Simulator.schedule_timer`; none of them is cancelled early, so
a separate cancellation-friendly structure would buy nothing.

No counter is written per event. :attr:`Simulator.pending_events` is
derived, O(1): the heap's length minus the cancelled entries still in
it (counted by :meth:`Event.cancel`, uncounted when the loop pops one).
:attr:`Simulator.events_processed` is counted in a local of the loop
and written back when :meth:`Simulator._run` returns, so a callback
that reads it sees the count before the current run. The engine offers
:meth:`Simulator.schedule_bulk` for batched workload injection (one
O(n) heapify instead of n heap pushes).

Armed when near: a churn timeline or an aging store takes a far timer's
``seq`` when it would schedule it and pushes it (:meth:`Simulator._push`)
before it is due — the same firing order, a shallower heap.

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
from typing import Any, Callable, Iterable, List, Optional, Sequence

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
                # fired, so a live reference means the entry is still on
                # the heap and stops counting as pending.
                sim._cancelled += 1
                self._sim = None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} prio={self.priority} {state}>"


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
    keep_trace_records:
        Ignored when false, kept for old callers: the :attr:`tracer`
        retains no records. True raises :class:`RecordRetentionError`;
        ``repro.testing.record_trace(sim)`` collects them instead.
    """

    def __init__(self, seed: int = 0, keep_trace_records: bool = False):
        if keep_trace_records:
            raise RecordRetentionError(
                "the tracer keeps no records; attach a listener instead, "
                "e.g. repro.testing.record_trace(sim)")
        #: Heap of (time, priority, seq, Event) — see the module docs.
        self._queue: List[tuple] = []
        self._seq = itertools.count()
        self._now = 0.0
        #: Cancelled entries still on the heap (see the module docs).
        self._cancelled = 0
        self._aging = None  # aging._Waiting, made by the first store
        self.rng = random.Random(seed)
        self.tracer = Tracer()
        self.events_processed = 0

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
        return event

    def at(self, time: float, callback: Callable[..., Any], *args: Any,
           priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule *callback* at absolute simulation *time*."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} (now is {self._now})")
        return self._push(time, priority, next(self._seq), callback, args)

    def _push(self, time: float, priority: int, seq: int,
              callback: Callable[..., Any], args: tuple) -> Event:
        """Put an event on the heap under a *seq* taken from :attr:`_seq`."""
        event = Event(time, priority, seq, callback, args, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def schedule_timer(self, delay: float, callback: Callable[..., Any],
                       *args: Any, priority: int = PRIORITY_LATE) -> Event:
        """:meth:`schedule` at :data:`PRIORITY_LATE` by default, so a
        housekeeping timer runs after same-instant data-plane events."""
        return self.schedule(delay, callback, *args, priority=priority)

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
        return events

    # -- execution -----------------------------------------------------------

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
        # Hot loop: local bindings avoid repeated attribute lookups,
        # events fire without any per-event allocation, and the only
        # per-event writes are the clock and the event's own slot.
        queue = self._queue
        heappop = heapq.heappop
        fired = 0
        try:
            while queue:
                event = queue[0][3]
                if event.cancelled:
                    heappop(queue)
                    self._cancelled -= 1
                    continue
                time = event.time
                if time >= limit and (time > limit or not inclusive):
                    return True
                if max_events is not None and fired >= max_events:
                    return False
                heappop(queue)
                self._now = time
                event._sim = None
                fired += 1
                event.callback(*event.args)
            return True
        finally:
            self.events_processed += fired

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events — O(1).

        The heap's length minus the cancelled entries still on it (a
        timer not armed yet is not pending). :meth:`audit_pending_events`
        cross-checks it against a full scan.
        """
        return len(self._queue) - self._cancelled

    def next_event_time(self) -> float:
        """Earliest timestamp anything could fire at — O(1), conservative.

        The heap head's time; ``inf`` when the heap is empty. A cancelled
        head only makes the answer *earlier* than the true next event,
        which is the safe direction for its one consumer: the sharded
        runtime's per-window horizon (:mod:`repro.netsim.shard`), where a bound
        computed from an under-estimate is still a valid guarantee.
        """
        queue = self._queue
        return queue[0][0] if queue else _INF

    def audit_pending_events(self) -> int:
        """O(n) debug scan of the heap; asserts it matches
        :attr:`pending_events` and returns the count."""
        scanned = sum(1 for entry in self._queue if not entry[3].cancelled)
        assert scanned == self.pending_events, (
            f"pending_events drifted: counted {scanned}, "
            f"derived {self.pending_events}")
        return scanned

    def __repr__(self) -> str:
        return (f"<Simulator t={self._now:.6f} queued={len(self._queue)} "
                f"processed={self.events_processed}>")
