"""Point-to-point Ethernet links.

A link joins exactly two ports and models, per direction:

* **serialisation** — the transmitter is busy for ``bits / bandwidth``
  seconds per frame; further frames wait in a bounded FIFO queue and
  overflow is tail-dropped,
* **propagation** — delivery is delayed by the configured latency,
* **carrier** — links can be taken down and brought back up; both
  endpoints get a carrier notification, queued and in-flight frames on a
  downed link are lost (exactly what a cable pull does to the NetFPGA),
* **statistics** — frames sent, delivered and dropped per ethertype,
  and bytes sent, like a NetFPGA port's registers; the simulator's
  tracer sums them on read (:mod:`repro.netsim.tracer`).

Heterogeneous per-link latency is what makes the ARP race meaningful:
the first ARP copy to arrive travelled the lowest-latency path.

The transmitter is *free-running* (PR 5): instead of a per-frame
``tx_done`` callback it keeps an arithmetic ``busy_until`` timestamp,
so an uncongested transmit schedules exactly **one** event — the
delivery, with the serialisation delay folded into it. A drain event
is armed lazily, only when a queue actually forms, and fires at the
instant the old model's ``tx_done`` would have: delivery times and
trace records are identical, at half the event count on the
uncongested path. Drop points are identical too, with one measure-zero
exception: a transmit firing at *exactly* ``busy_until`` against a
*full* queue now always tail-drops, where the retired model admitted
or dropped depending on whether its ``tx_done`` happened to carry an
earlier heap sequence number than the competing event — seq-lottery
behaviour, not link semantics, and unreachable with continuous
latencies (the golden traces and congestion tests pin every realistic
drop path equal).

One deliberate semantic cleanup rides along: an infinite-bandwidth
link (``bandwidth=None``) never queues and never tail-drops — its
transmitter is idle again the instant it starts, which is what
"serialisation skipped" means. (The retired model briefly held
``busy`` across a zero-duration window, so a large enough same-instant
burst could tail-drop; that was an event-model artifact, not link
semantics. Delivery times were and are identical either way.)

One transmit body: every frame that gets onto the wire, at once or out
of the queue, leaves through :meth:`Link._start_tx`, which evaluates
the delivery instant in **one** expression, ``deliver_at = now + ser +
latency`` (= ``busy_until + latency``), for the local delivery and a
shard's ``export`` hook alike — an arrival cannot move by an ulp with
how the frame left (``tests/test_link.py::TestOneDeliveryInstant``).

In-flight FIFO: a direction's ``pending`` deque holds **exactly the
deliveries in flight**, oldest first — scheduling appends, the delivery
pops the head as its first act, :meth:`Link.take_down` cancels the
rest — so nothing fired is retained and a delivered frame dies by
reference count. Sound because one direction's deliveries fire in
scheduling order: ``busy_until`` never falls while carrier holds (the
transmitter serialises), ``latency`` / ``bandwidth`` are fixed at
construction and float addition is monotonic; ties fall to the engine's
ascending ``seq``; a shard's import side releases sorted, under rising
bounds (guard: ``tests/test_link.py::TestInFlightFifo``, every engine
step).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Dict, Optional

from repro.frames.ethernet import EthernetFrame
from repro.netsim import tracer as trc
from repro.netsim.engine import (PRIORITY_EARLY, PRIORITY_NORMAL, Event,
                                 Simulator)
from repro.netsim.errors import TopologyError
from repro.netsim.node import Port

#: 1 Gb/s — the NetFPGA's line rate.
DEFAULT_BANDWIDTH = 1_000_000_000.0
#: 10 µs default one-way propagation delay.
DEFAULT_LATENCY = 10e-6
DEFAULT_QUEUE_CAPACITY = 64


class _Direction:
    """Transmitter state and statistics registers for one direction of
    the link."""

    __slots__ = ("queue", "busy_until", "pending", "drain_event",
                 "to_port", "export") + trc.TALLIES

    def __init__(self, to_port: Port):
        # The queue is unbounded here; Link.transmit enforces the
        # capacity (not deque maxlen) so overflow tail-drops are
        # observable and counted.
        self.queue: Deque[EthernetFrame] = deque(maxlen=None)
        #: The transmitter is busy strictly before this instant; at or
        #: after it the next frame starts serialising immediately. A
        #: plain float comparison replaces the old per-frame tx_done
        #: event on the uncongested path.
        self.busy_until = 0.0
        #: Exactly the deliveries in flight, oldest first (module docstring).
        self.pending: Deque[Event] = deque()
        #: Armed only while frames wait in the queue; fires at
        #: ``busy_until`` to start the next serialisation (the only
        #: moment the old tx_done event is still needed).
        self.drain_event: Optional[Event] = None
        #: Statistics registers (``trc.TALLIES``), per ethertype: frames
        #: sent, delivered, tail-dropped (queue full), lost to carrier
        #: loss (queued or in flight when the link went down, or handed
        #: to a downed transmitter), and wire bytes sent. The tracer sums
        #: them on read; ``Tracer.reset`` clears them in place.
        self.sent: Dict[int, int] = {}
        self.delivered: Dict[int, int] = {}
        self.drop_queue: Dict[int, int] = {}
        self.drop_link_down: Dict[int, int] = {}
        self.sent_bytes: Dict[int, int] = {}
        #: The receiving endpoint of this direction, cached so delivery
        #: skips the two identity compares of :meth:`Link.other`.
        self.to_port = to_port
        #: Boundary hook for the sharded runtime: when set, a frame that
        #: clears serialisation is handed to ``export(send_time,
        #: deliver_time, frame)`` instead of scheduling a local delivery
        #: event — the receiving shard schedules the delivery on its own
        #: engine. None (the overwhelmingly common case) keeps the
        #: single-process fast path branch-predictable.
        self.export = None


class Link:
    """A bidirectional point-to-point link between two ports."""

    def __init__(self, sim: Simulator, port_a: Port, port_b: Port,
                 latency: float = DEFAULT_LATENCY,
                 bandwidth: Optional[float] = DEFAULT_BANDWIDTH,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 name: Optional[str] = None):
        if port_a is port_b:
            raise TopologyError("cannot connect a port to itself")
        if port_a.link is not None or port_b.link is not None:
            raise TopologyError(
                f"port already attached: {port_a.name if port_a.link else port_b.name}")
        if latency < 0:
            raise TopologyError(f"negative latency: {latency}")
        if bandwidth is not None and bandwidth <= 0:
            raise TopologyError(f"bandwidth must be positive: {bandwidth}")
        if queue_capacity < 0:
            raise TopologyError(f"negative queue capacity: {queue_capacity}")

        self.sim = sim
        self.port_a = port_a
        self.port_b = port_b
        self.latency = latency
        self.bandwidth = bandwidth
        #: Seconds of serialisation per wire byte (0.0 = infinite
        #: bandwidth): a precomputed multiplier so the per-frame fast
        #: path never divides.
        self._ser_per_byte = 0.0 if bandwidth is None else 8.0 / bandwidth
        self.queue_capacity = queue_capacity
        self.up = True
        self.name = name or f"{port_a.name}<->{port_b.name}"
        self._dirs = {port_a: _Direction(port_b),
                      port_b: _Direction(port_a)}
        #: The tracer's listener list (never rebound): whether it is
        #: empty is the hop's one tracing branch.
        self._listeners = sim.tracer._listeners
        sim.tracer.register(*self._dirs.values())
        #: One bound method shared by every delivery this link ever
        #: schedules (a fresh `self._deliver` per transmit is an
        #: allocation the fast path can skip).
        self._deliver_cb = self._deliver
        port_a.link = self
        port_b.link = self
        port_a.node.invalidate_port_cache()
        port_b.node.invalidate_port_cache()

    # -- wiring --------------------------------------------------------------

    def other(self, port: Port) -> Port:
        """The opposite endpoint of *port*."""
        direction = self._dirs.get(port)
        if direction is None:
            raise TopologyError(f"{port.name} is not an endpoint of {self.name}")
        return direction.to_port

    # -- data plane ----------------------------------------------------------

    def serialization_delay(self, frame: EthernetFrame) -> float:
        """Seconds the transmitter is busy sending *frame*."""
        return frame.wire_size * self._ser_per_byte

    def transmit(self, from_port: Port, frame: EthernetFrame) -> None:
        """Queue *frame* for transmission from *from_port*.

        An idle transmitter starts serialising at once
        (:meth:`_start_tx`); a busy one queues the frame behind a lazily
        armed drain event, tail-dropping at ``queue_capacity``.
        """
        direction = self._dirs[from_port]
        if not self.up:
            self._trace(direction, trc.DROP_LINK_DOWN, frame)
            return
        now = self.sim._now
        # A non-empty queue keeps the FIFO order even at the exact
        # busy_until instant (the drain event for it is already armed
        # and fires this instant): new frames go behind, never ahead.
        if direction.busy_until > now or direction.queue:
            if len(direction.queue) >= self.queue_capacity:
                self._trace(direction, trc.DROP_QUEUE, frame)
                return
            direction.queue.append(frame)
            if direction.drain_event is None:
                direction.drain_event = self.sim.schedule(
                    direction.busy_until - now, self._drain, direction)
            return
        self._start_tx(direction, frame, now)

    def _start_tx(self, direction: _Direction, frame: EthernetFrame,
                  now: float) -> None:
        """Start serialising *frame* now — the one transmit body, behind
        :meth:`transmit` and :meth:`_drain` alike: one SENT frames and
        bytes bump, one ``busy_until`` update, one ``deliver_at`` (module
        docstring). Runs once per flooded copy per hop.
        """
        size = frame._wire_size
        if size is None:
            size = frame.wire_size
        # Inlined _trace (plus the bytes register): a record is built
        # only for listeners.
        ethertype = frame.ethertype
        tally = direction.sent
        tally[ethertype] = tally.get(ethertype, 0) + 1
        tally = direction.sent_bytes
        tally[ethertype] = tally.get(ethertype, 0) + size
        if self._listeners:
            self._record(trc.SENT, frame)
        ser = size * self._ser_per_byte
        busy_until = direction.busy_until = now + ser
        deliver_at = busy_until + self.latency
        if direction.export is not None:
            # Shard boundary: the frame leaves this engine. The receiving
            # shard schedules the delivery, so this hop costs the same
            # one engine event system-wide as the local path below.
            direction.export(now, deliver_at, frame)
            return
        # Inlined Simulator.at (keep in sync with it): one Event filled
        # by slot writes, one heap entry in the engine's documented
        # (time, priority, seq, event) tuple shape. Calling it would put
        # the hop over tests/test_hotpath_cost.py's budget.
        sim = self.sim
        seq = next(sim._seq)
        event = Event.__new__(Event)
        event.time = deliver_at
        event.priority = PRIORITY_NORMAL
        event.seq = seq
        event.callback = self._deliver_cb
        event.args = (direction, frame)
        event.cancelled = False
        event._sim = sim
        heappush(sim._queue, (deliver_at, PRIORITY_NORMAL, seq, event))
        sim._pending += 1
        direction.pending.append(event)

    def _drain(self, direction: _Direction) -> None:
        """The transmitter went idle with frames queued: start the next.

        Fires at exactly the instant the retired per-frame ``tx_done``
        event used to, so queued frames serialise back-to-back with
        identical timing; re-arms itself while the queue is non-empty.
        """
        direction.drain_event = None
        if not self.up or not direction.queue:
            return
        self._start_tx(direction, direction.queue.popleft(), self.sim._now)
        if direction.queue:
            direction.drain_event = self.sim.schedule(
                direction.busy_until - self.sim._now, self._drain, direction)

    def _deliver(self, direction: _Direction, frame: EthernetFrame) -> None:
        # Head of the in-flight FIFO (module docstring); the link is up,
        # because take_down cancels every delivery still in flight.
        direction.pending.popleft()
        # Inlined DELIVERED _trace: this is the single hottest callback
        # in the simulator.
        tally = direction.delivered
        ethertype = frame.ethertype
        tally[ethertype] = tally.get(ethertype, 0) + 1
        if self._listeners:
            self._record(trc.DELIVERED, frame)
        to_port = direction.to_port
        node = to_port.node
        if node._trace_hops:
            # Node.deliver owns the copy-on-write hop recording; it is
            # also the documented instance-level wrap point (the
            # PathObserver), which requires trace_hops — so the
            # non-tracing fast path below never bypasses a wrapper.
            node.deliver(to_port, frame)
        else:
            node.handle_frame(to_port, frame)

    # -- carrier control -----------------------------------------------------

    def take_down(self) -> None:
        """Lose carrier: drop queued and in-flight frames, notify nodes."""
        if not self.up:
            return
        self.up = False
        for direction in self._dirs.values():
            for frame in direction.queue:
                self._trace(direction, trc.DROP_LINK_DOWN, frame)
            direction.queue.clear()
            for event in direction.pending:
                event.cancel()
                # args = (direction, frame) of _deliver.
                self._trace(direction, trc.DROP_LINK_DOWN, event.args[1])
            direction.pending.clear()
            if direction.drain_event is not None:
                direction.drain_event.cancel()
                direction.drain_event = None
            direction.busy_until = 0.0
        self._notify_carrier(False)

    def bring_up(self) -> None:
        """Regain carrier and notify both endpoints."""
        if self.up:
            return
        self.up = True
        self._notify_carrier(True)

    def _notify_carrier(self, up: bool) -> None:
        for port in (self.port_a, self.port_b):
            # Ghost endpoints (sharded runs) were never started and must
            # schedule nothing, or per-shard event counts would not sum
            # to the single-process count.
            if not port.node.shard_ghost:
                self.sim.call_soon(port.node.link_state_changed, port, up,
                                   priority=PRIORITY_EARLY)

    # -- introspection -----------------------------------------------------

    @property
    def queue_drops(self) -> Dict[str, int]:
        """Tail-drop count per direction, keyed by the sending port name."""
        return {port: stats["queue_drops"]
                for port, stats in self.stats().items()}

    @property
    def carrier_drops(self) -> Dict[str, int]:
        """Carrier-loss drop count per direction, keyed by the sending
        port name (frames queued or in flight when carrier was lost)."""
        return {port: stats["carrier_drops"]
                for port, stats in self.stats().items()}

    def bytes_sent(self, ethertype: Optional[int] = None) -> int:
        """Wire bytes sent in both directions, optionally of one
        ethertype."""
        return sum(sum(direction.sent_bytes.values()) if ethertype is None
                   else direction.sent_bytes.get(ethertype, 0)
                   for direction in self._dirs.values())

    def is_busy(self, from_port: Port) -> bool:
        """Is the transmitter out of *from_port* mid-serialisation now?"""
        return self._dirs[from_port].busy_until > self.sim._now

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-direction transmitter state, keyed by the sending port name.

        Each direction reports its current queue depth, whether the
        transmitter is busy, and its statistics registers since the
        tracer was last reset: frames sent and delivered, wire bytes
        sent, tail drops and carrier-loss drops.
        """
        now = self.sim._now
        return {port.name: {"queued": len(direction.queue),
                            "busy": direction.busy_until > now,
                            "sent": sum(direction.sent.values()),
                            "delivered": sum(direction.delivered.values()),
                            "sent_bytes": sum(direction.sent_bytes.values()),
                            "queue_drops": sum(direction.drop_queue.values()),
                            "carrier_drops":
                                sum(direction.drop_link_down.values())}
                for port, direction in self._dirs.items()}

    # -- tracing ---------------------------------------------------------

    def _trace(self, direction: _Direction, kind: str,
               frame: EthernetFrame) -> None:
        # The drop kinds (_start_tx and _deliver inline this for SENT /
        # DELIVERED): one bump on the direction's register for *kind*,
        # and a record only if someone listens.
        tally = getattr(direction, kind)
        ethertype = frame.ethertype
        tally[ethertype] = tally.get(ethertype, 0) + 1
        if self._listeners:
            self._record(kind, frame)

    def _record(self, kind: str, frame: EthernetFrame) -> None:
        # The one record-building call, shared by _start_tx, _deliver
        # and _trace. MAC objects are passed through: the record renders
        # them lazily.
        size = frame._wire_size
        if size is None:
            size = frame.wire_size
        self.sim.tracer.record(kind, self.sim._now, self.name, frame.uid,
                               frame.ethertype, size, frame.src, frame.dst)

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Link {self.name} {state} lat={self.latency * 1e6:.1f}us>"
