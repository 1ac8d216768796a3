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
  and bytes sent, like a NetFPGA port's registers: a send is one
  subscript of the direction's ``tallies`` and two slot bumps, a
  delivery one subscript and one bump; the simulator's tracer sums
  them on read (:mod:`repro.netsim.tracer`).

Heterogeneous per-link latency is what makes the ARP race meaningful:
the first ARP copy to arrive travelled the lowest-latency path.

A link carries the frame object it is handed and delivers that same
object to the receiving node's ``handle_frame``: a frame is never
mutated once sent (:mod:`repro.frames.ethernet`), so a flood's copies
are one object, and the path a copy took is read from the link
records (:class:`repro.metrics.paths.PathObserver`), not from the
frame.

The transmitter is *free-running*: instead of a per-frame ``tx_done``
callback it keeps an arithmetic ``busy_until`` timestamp, so an
uncongested transmit schedules exactly **one** event — the delivery,
with the serialisation delay folded into it. A drain event is armed
only when a queue forms, and fires at ``busy_until``. A transmit at
*exactly* ``busy_until`` against a *full* queue tail-drops. An
infinite-bandwidth link (``bandwidth=None``) never queues and never
tail-drops: its transmitter is idle again the instant it starts.

One transmit body: every frame that gets onto the wire leaves through
:meth:`Link.transmit`, at once or handed there by ``_drain`` as the
queue's head, and its delivery instant is **one** expression,
``deliver_at = now + ser + latency`` (= ``busy_until + latency``), for
the local delivery and a shard's ``export`` hook alike — an arrival
cannot move by an ulp with how the frame left
(``tests/test_link.py::TestOneDeliveryInstant``). The transmitter is
busy while ``busy_until > now`` or a drain is armed: outside
``_drain``, a direction's queue is non-empty exactly when its
``drain_event`` is armed (:mod:`repro.check`'s ``drain`` invariant).

In-flight FIFO: a direction's ``pending`` deque holds **exactly the
frames in flight**, oldest first — scheduling appends the frame, the
delivery pops the head as its first act, :meth:`Link.take_down` drops
the rest — so nothing fired is retained and a delivered frame dies by
reference count. A delivery carries no :class:`~repro.netsim.engine
.Event`: its heap entry is ``(deliver_at, PRIORITY_NORMAL, seq,
direction.flight)``, where the direction's one *flight token*
(:class:`_Flight`) calls ``_deliver(direction)``, which takes its frame
from the head of ``pending``. ``take_down`` cancels every entry at
once by cancelling the token (and counting ``len(pending)`` cancelled
heap entries), then gives the direction a fresh one. Sound because one
direction's deliveries fire in scheduling order: ``busy_until`` never
falls while carrier holds (the transmitter serialises), ``latency`` /
``bandwidth`` are fixed at construction and float addition is
monotonic; ties fall to the engine's ascending ``seq``; a shard's
import side releases sorted, under rising bounds (guard:
:mod:`repro.check`'s ``in-flight`` and ``fifo`` invariants, which every
tier-1 simulator runs under and ``tests/test_link.py::TestInFlightFifo``
audits after every engine step).
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


class _Flight:
    """The event of every delivery in flight on one direction: fired
    by the engine like an :class:`~repro.netsim.engine.Event`, made once
    per direction, not per frame (module docstring)."""

    __slots__ = ("cancelled", "callback", "args", "_sim")

    def __init__(self, callback, args: tuple):
        self.cancelled = False
        self.callback = callback
        self.args = args
        self._sim = None


class _Direction:
    """Transmitter state and statistics registers for one direction of
    the link."""

    __slots__ = ("queue", "busy_until", "pending", "flight", "drain_event",
                 "tallies", "from_port", "to_port", "export")

    def __init__(self, link: "Link", from_port: Port, to_port: Port):
        # The queue is unbounded here; Link.transmit enforces the
        # capacity (not deque maxlen) so overflow tail-drops are
        # observable and counted.
        self.queue: Deque[EthernetFrame] = deque(maxlen=None)
        #: The transmitter is busy strictly before this instant; at or
        #: after it the next frame starts serialising immediately.
        self.busy_until = 0.0
        #: Exactly the frames in flight, oldest first (module docstring).
        self.pending: Deque[EthernetFrame] = deque()
        #: The heap entry payload of each of them (module docstring).
        self.flight = _Flight(link._deliver, (self,))
        #: Armed exactly while frames wait in the queue; fires at
        #: ``busy_until`` to start the next serialisation.
        self.drain_event: Optional[Event] = None
        #: Statistics registers, one record per ethertype: frames sent,
        #: delivered, tail-dropped (queue full), lost to carrier loss
        #: (queued or in flight when the link went down, or handed to a
        #: downed transmitter), and wire bytes sent.
        self.tallies = trc.Tallies()
        #: The sending endpoint, which names the direction (the key of
        #: :meth:`Link.stats`, a record's rendered ``direction``).
        self.from_port = from_port
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
        self._dirs = {port_a: _Direction(self, port_a, port_b),
                      port_b: _Direction(self, port_b, port_a)}
        #: The tracer's listener list (never rebound): whether it is
        #: empty is the hop's one tracing branch.
        self._listeners = sim.tracer._listeners
        sim.tracer.register(*self._dirs.values())
        port_a.link = self
        port_b.link = self
        port_a.node.refresh_attached_ports()
        port_b.node.refresh_attached_ports()

    # -- wiring --------------------------------------------------------------

    def other(self, port: Port) -> Port:
        """The opposite endpoint of *port*."""
        direction = self._dirs.get(port)
        if direction is None:
            raise TopologyError(f"{port.name} is not an endpoint of {self.name}")
        return direction.to_port

    # -- data plane ----------------------------------------------------------

    def transmit(self, from_port: Port, frame: EthernetFrame) -> None:
        """Send *frame* from *from_port* — the one transmit body.

        A busy transmitter queues the frame behind a lazily armed drain
        event, tail-dropping at ``queue_capacity``; an idle one starts
        serialising at once: one SENT frames and bytes bump, one
        ``busy_until`` update, one ``deliver_at`` (module docstring).
        Runs once per flooded copy per hop.
        """
        direction = self._dirs[from_port]
        if not self.up:
            self._trace(direction, trc.DROP_LINK_DOWN, frame)
            return
        sim = self.sim
        now = sim._now
        # An armed drain keeps the FIFO order even at the exact
        # busy_until instant (it fires this instant): new frames go
        # behind the queue, never ahead of it.
        if direction.busy_until > now or direction.drain_event is not None:
            if len(direction.queue) >= self.queue_capacity:
                self._trace(direction, trc.DROP_QUEUE, frame)
                return
            direction.queue.append(frame)
            if direction.drain_event is None:
                direction.drain_event = sim.schedule(
                    direction.busy_until - now, self._drain, direction)
            return
        size = frame.wire_size
        # Inlined _trace (plus the bytes register): a record is built
        # only for listeners.
        registers = direction.tallies[frame.ethertype]
        registers.sent += 1
        registers.sent_bytes += size
        if self._listeners:
            self._record(trc.SENT, frame, direction)
        busy_until = direction.busy_until = now + size * self._ser_per_byte
        deliver_at = busy_until + self.latency
        if direction.export is not None:
            # Shard boundary: the frame leaves this engine. The receiving
            # shard schedules the delivery, so this hop costs the same
            # one engine event system-wide as the local path below.
            direction.export(now, deliver_at, frame)
            return
        heappush(sim._queue, (deliver_at, PRIORITY_NORMAL, next(sim._seq),
                              direction.flight))
        direction.pending.append(frame)

    def _drain(self, direction: _Direction) -> None:
        """The transmitter went idle with frames queued: send the next.

        Fires at exactly the instant the retired per-frame ``tx_done``
        event used to, so queued frames serialise back-to-back with
        identical timing; re-arms itself while the queue is non-empty.
        ``take_down`` cancels it, so the link is up and the queue holds
        a frame.
        """
        direction.drain_event = None
        # Idle now, even where the armed delay rounded an ulp short.
        direction.busy_until = now = self.sim._now
        self.transmit(direction.from_port, direction.queue.popleft())
        if direction.queue:
            direction.drain_event = self.sim.schedule(
                direction.busy_until - now, self._drain, direction)

    def _deliver(self, direction: _Direction) -> None:
        # Head of the in-flight FIFO (module docstring); the link is up,
        # because take_down cancels every delivery still in flight.
        frame = direction.pending.popleft()
        # Inlined DELIVERED _trace: this is the single hottest callback
        # in the simulator.
        direction.tallies[frame.ethertype].delivered += 1
        if self._listeners:
            self._record(trc.DELIVERED, frame, direction)
        to_port = direction.to_port
        to_port.node.handle_frame(to_port, frame)

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
            flight = direction.flight
            flight.cancelled = True
            self.sim._cancelled += len(direction.pending)
            direction.flight = _Flight(flight.callback, flight.args)
            for frame in direction.pending:
                self._trace(direction, trc.DROP_LINK_DOWN, frame)
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
        return sum(registers.sent_bytes
                   for direction in self._dirs.values()
                   for key, registers in direction.tallies.items()
                   if ethertype is None or key == ethertype)

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-direction transmitter state, keyed by the sending port name.

        Each direction reports its current queue depth, whether the
        transmitter is busy, and its statistics registers since the
        tracer was last reset: frames sent and delivered, wire bytes
        sent, tail drops and carrier-loss drops.
        """
        now = self.sim._now
        stats = {}
        for port, direction in self._dirs.items():
            tallies = direction.tallies.values()
            stats[port.name] = {
                "queued": len(direction.queue),
                "busy": direction.busy_until > now,
                "sent": sum(tally.sent for tally in tallies),
                "delivered": sum(tally.delivered for tally in tallies),
                "sent_bytes": sum(tally.sent_bytes for tally in tallies),
                "queue_drops": sum(tally.drop_queue for tally in tallies),
                "carrier_drops": sum(tally.drop_link_down
                                     for tally in tallies)}
        return stats

    # -- tracing ---------------------------------------------------------

    def _trace(self, direction: _Direction, kind: str,
               frame: EthernetFrame) -> None:
        # The drop kinds (transmit and _deliver inline this for SENT /
        # DELIVERED): one bump on the direction's register for *kind*,
        # and a record only if someone listens.
        registers = direction.tallies[frame.ethertype]
        setattr(registers, kind, getattr(registers, kind) + 1)
        if self._listeners:
            self._record(kind, frame, direction)

    def _record(self, kind: str, frame: EthernetFrame,
                direction: _Direction) -> None:
        # The one record-building call, shared by transmit, _deliver
        # and _trace. MAC objects and the direction are passed through:
        # the record renders them lazily.
        self.sim.tracer.record(kind, self.sim._now, self.name, frame.uid,
                               frame.ethertype, frame.wire_size, frame.src,
                               frame.dst, direction)

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Link {self.name} {state} lat={self.latency * 1e6:.1f}us>"
