"""Sharded execution: one simulation across many engines.

One :class:`~repro.netsim.engine.Simulator` is single-threaded by
design; this module runs *one logical simulation* as K cooperating
engines (shards) in the calling thread, synchronized with the
classic conservative null-message protocol (Chandy–Misra–Bryant):
every cut link's propagation latency is *lookahead* — shard A can
promise shard B "nothing from me before ``t + lookahead``" — and each
shard only fires events strictly below the minimum promise it holds
from its peers.

The contract is exact, not approximate: a sharded run produces
**byte-identical experiment records** to the single-process run at any
shard count. The pieces that make that hold:

* **Deterministic partition** — :func:`repro.topology.partition
  .partition_network` is a pure function of the wiring; every shard
  computes the same plan without coordination.
* **Full replica topology** — every shard builds the *entire* network
  with the same builder calls (same names, MACs, IPs, link latencies);
  nodes owned by other shards are *ghosts*: present for bookkeeping,
  never started, so they schedule nothing.
* **Boundary export** — a frame transmitted into a cut link is handed
  to the owning peer as ``(send_time, deliver_time, frame)`` instead of
  a local delivery event (:attr:`_Direction.export`); the receiver
  schedules the delivery on its own engine at the exact same instant
  the single-process run would have. One engine event per cross-shard
  hop, system-wide — the same event economy as a local hop.
* **Hand-over by reference** — the receiver schedules the very frame
  object the sender transmitted. That is sound for the reason sharing
  one object across a flood is (:mod:`repro.frames.ethernet`): a frame
  is never mutated once sent, and the only write, the idempotent
  ``_kind`` cache, stores the same value whichever engine makes it. So the receiver sees the uid and application
  payload the single engine would (``tests/test_shard.py::TestHandOver``).
* **Deterministic boundary ordering** — staged remote frames are
  released in ``(deliver_time, src_shard, src_seq)`` order, so
  same-instant boundary deliveries tie-break identically at any shard
  count. (Cross-shard vs local ties at the *exact* same instant remain
  a heap-sequence lottery, like the PR 5 measure-zero caveat; the
  experiment topologies jitter link latencies, which makes exact ties
  measure-zero.)
* **Per-shard RNG derivation** — shard k seeds its engine with
  :func:`derive_shard_seed` (identity at shard 0), so no two shards
  share an RNG stream yet shard 0 reproduces the single-process
  stream. Topology builders always get the *base* seed — wiring must
  be identical everywhere.

Lockstep rounds
---------------

A shard body is a generator. Each round it yields one message per
peer — ``(horizon, done, frames)`` — and :func:`run_sharded`, which
steps all K bodies round by round, sends back every peer's message to
it: a round is a function call, the exchange a barrier by
construction. A shard's *horizon* is the earliest instant anything it
still holds could fire: its next local event, its earliest staged
remote frame, or the earliest frame in the batches it is flushing in
that very message. Because nothing is in transit between rounds,
every future event anywhere in the system must chain from state some
shard just counted — which makes ``min(all horizons)`` a floor on
every future firing, and ``global_min + lookahead`` a floor on every
future *input*. Each round a shard releases staged frames and runs
strictly below that window; a quiet stretch costs one round (the
window jumps straight to the next event time — no null-message
creep), a dense burst creeps by one lookahead per round but fires
many events each. When the window clears the phase target T the shard
runs inclusively to T and flags ``done`` — everything that closing
slice exports provably lands beyond T, so it stays staged for the
next phase, exactly the single-process semantics of ``run(until=T)``
leaving future events queued. All shards observe the all-done round
simultaneously, so every phase costs the same number of rounds
everywhere and no message carries cross-phase traffic.
"""

from __future__ import annotations

import traceback
import types
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.netsim import tracer as trc
from repro.netsim.engine import Simulator
from repro.netsim.errors import TopologyError
from repro.netsim.link import Link
from repro.topology.builder import Network
from repro.topology.partition import ShardPlan

_INF = float("inf")

#: Golden-ratio multiplier (Weyl/Fibonacci hashing): spreads shard ids
#: across the 32-bit seed space so derived engine streams decorrelate.
_SEED_MIX = 0x9E3779B9


class ShardWorkerError(RuntimeError):
    """A shard body failed or left the lockstep; carries the traceback
    or names the shards and the round."""


def derive_shard_seed(seed: int, shard_id: int) -> int:
    """The engine seed for *shard_id* of a run seeded with *seed*.

    Identity at shard 0 — the shard that plays the single-process
    engine's part reproduces its RNG stream bit-for-bit — and a
    golden-ratio XOR mix elsewhere so sibling shards never share a
    stream. Pinned by test: this derivation is part of the determinism
    contract (re-deriving differently would silently change any future
    experiment that draws from ``sim.rng``).
    """
    return seed ^ ((_SEED_MIX * shard_id) & 0xFFFFFFFF)


class ShardRuntime:
    """One shard's half of the conservative protocol.

    Owns the shard's engine plus the boundary state: export hooks on
    cut-link directions, the staged remote frames not yet safe to
    release, the in-flight ledger the memory sampler consults, and the
    per-link carrier history the release-time drop rule replays.
    """

    def __init__(self, sim: Simulator, shard_id: int,
                 peers: Optional[List[int]]):
        self.sim = sim
        self.shard_id = shard_id
        #: The other shards' ids, sorted; ``None`` on a single engine.
        self.peers = peers
        self.net: Optional[Network] = None
        self.plan: Optional[ShardPlan] = None
        self.lookahead = _INF
        #: Staged remote frames: (t2, src_shard, src_seq, link_name,
        #: dir_key, t1, frame). Sorted lazily at release.
        self._staged: List[tuple] = []
        #: Per-peer outgoing frame batches, flushed every round.
        self._outbox: Dict[int, List[tuple]] = {}
        #: Cut links by name: a staged frame names its link, and release
        #: resolves the name on this shard's replica.
        self._links: Dict[str, Link] = {}
        #: Last carrier-loss instant per cut-link name.
        self._down_at: Dict[str, float] = {}
        #: (link_name, dir_key) -> deliver times of frames this shard
        #: exported that are still in flight — the sender-side half of
        #: the sampler's pending-event accounting.
        self._ledger: Dict[Tuple[str, int], List[float]] = {}
        self._export_seq = 0

    # -- adoption ------------------------------------------------------------

    def owns(self, name: str) -> bool:
        """Does this shard own the named node?"""
        return self.plan.shard_of(name) == self.shard_id

    def adopt(self, net: Network, plan: ShardPlan) -> None:
        """Take charge of *net* according to *plan*.

        Marks other shards' nodes as ghosts, installs boundary export
        hooks on every cut link and fixes the protocol lookahead at the
        plan's. The wiring is frozen from here on: ``Network._link_hook``
        refuses any link created later (a host migration, say), because
        a new cut link could undercut the lookahead floor.
        """
        self.net = net
        self.plan = plan
        self.lookahead = plan.lookahead
        for peer in self.peers or ():
            self._outbox[peer] = []
        for registry in (net.bridges, net.hosts, net.populations,
                         net.controllers):
            for name, node in registry.items():
                if plan.shard_of(name) != self.shard_id:
                    node.shard_ghost = True
        for wire in net.links.values():
            self._wire_link(wire)
        net._link_hook = self._refuse_link

    def _refuse_link(self, name: str) -> None:
        raise TopologyError(
            f"cannot add link {name} to a network adopted by shard "
            f"{self.shard_id}: the partition plan and its lookahead "
            f"were fixed from the wiring at adoption")

    def _wire_link(self, wire: Link) -> None:
        """Classify one link; install boundary hooks if it is cut."""
        plan = self.plan
        shard_a = plan.shard_of(wire.port_a.node.name)
        shard_b = plan.shard_of(wire.port_b.node.name)
        if shard_a == shard_b:
            return
        self._links[wire.name] = wire
        self._wrap_take_down(wire)
        for dir_key, (from_port, from_shard, to_shard) in enumerate(
                ((wire.port_a, shard_a, shard_b),
                 (wire.port_b, shard_b, shard_a))):
            if from_shard == self.shard_id:
                direction = wire._dirs[from_port]
                direction.export = self._make_export(wire.name, dir_key,
                                                     to_shard)

    def _wrap_take_down(self, wire: Link) -> None:
        """Record carrier-loss instants for the release-time drop rule.

        A cut link's in-flight frames live in *neither* engine's heap
        (they sit in an outbox or a staging list), so the single-process
        semantics "take_down cancels in-flight deliveries" must be
        replayed when the receiver releases them: drop iff the carrier
        was lost after the frame was sent and before it would have
        arrived.
        """
        original = wire.take_down
        runtime = self

        def take_down() -> None:
            if wire.up:
                runtime._down_at[wire.name] = runtime.sim._now
                # Exported in-flight frames die with the carrier — the
                # receiving shard replays the drop; stop counting them.
                runtime._ledger.pop((wire.name, 0), None)
                runtime._ledger.pop((wire.name, 1), None)
            original()

        wire.take_down = take_down

    def _make_export(self, link_name: str, dir_key: int,
                     dst_shard: int) -> Callable[[float, float, Any], None]:
        runtime = self

        def export(send_time: float, deliver_time: float, frame) -> None:
            # The frame object itself: in flight it is immutable
            # (see the module docstring), so the hand-over needs no copy.
            runtime._export_seq += 1
            runtime._outbox[dst_shard].append(
                (link_name, dir_key, send_time, deliver_time, frame,
                 runtime._export_seq))
            runtime._ledger.setdefault((link_name, dir_key),
                                       []).append(deliver_time)

        return export

    # -- sampler hook --------------------------------------------------------

    def pending_adjust(self) -> int:
        """The pending-event delta for the memory sampler.

        A frame in flight across the boundary is one pending delivery
        event in the single-process run. Here it is either a frame not
        yet released, in an outbox or staged (counted by the sender's
        ledger until its deliver time passes), or an already-scheduled
        event on the receiver (counted by the receiver's engine **and**
        still by the sender's ledger — so the receiver subtracts its
        live released events: all its cut links' in-flight FIFOs ever
        hold). Summing both shards' samples at one instant therefore
        reproduces the single-process pending count exactly.
        """
        now = self.sim._now
        sender = 0
        for t2s in self._ledger.values():
            if t2s:
                t2s[:] = [t2 for t2 in t2s if t2 > now]
                sender += len(t2s)
        released = sum(len(direction.pending)
                       for wire in self._links.values()
                       for direction in wire._dirs.values())
        return sender - released

    # -- staged-frame release ------------------------------------------------

    def _release(self, bound: float, inclusive: bool) -> None:
        """Schedule every staged frame due before *bound* (at it, too,
        when *inclusive*) in deterministic boundary order."""
        staged = self._staged
        if not staged:
            return
        if inclusive:
            ready = [entry for entry in staged if entry[0] <= bound]
        else:
            ready = [entry for entry in staged if entry[0] < bound]
        if not ready:
            return
        self._staged = [entry for entry in staged
                        if (entry[0] > bound if inclusive
                            else entry[0] >= bound)]
        # (t2, src_shard, src_seq): the documented boundary tie-break.
        # Scheduling in this order hands same-instant deliveries
        # monotonically increasing engine seqs, making the merge order
        # a pure function of the simulation, not of worker timing.
        ready.sort(key=lambda entry: entry[:3])
        sim = self.sim
        for (t2, _src_shard, _src_seq, link_name, dir_key, t1,
             frame) in ready:
            wire = self._links[link_name]
            direction = wire._dirs[wire.port_a if dir_key == 0
                                   else wire.port_b]
            down_at = self._down_at.get(link_name)
            if down_at is not None and t1 <= down_at < t2:
                # The carrier drop this worker replayed at down_at
                # cancelled this delivery in the single-process run.
                wire._trace(direction, trc.DROP_LINK_DOWN, frame)
                continue
            # Sorted, under rising bounds: FIFO order (netsim.link).
            direction.pending.append(
                sim.at(t2, wire._deliver_cb, direction, frame))

    # -- lockstep execution --------------------------------------------------

    def run_until(self, target: float) -> Generator[dict, dict, None]:
        """Advance this shard to global time *target* (inclusive).

        A generator: each lockstep round yields ``{peer: (horizon, done,
        frames)}`` and is sent back ``{peer: message}`` from every peer
        (:func:`run_sharded` does the stepping); on a single engine it
        runs to *target* without yielding. Every shard must walk the
        identical target sequence — the phase structure is part of the
        protocol — and a caller must ``yield from`` it: called bare, it
        does nothing.
        """
        sim = self.sim
        peers = self.peers
        if peers is None:
            sim.run(until=target)
            return
        outbox = self._outbox
        done = False
        while True:
            # My horizon: the earliest instant anything I still hold
            # could fire — next heap event, earliest staged remote
            # frame, earliest frame in the batches this very message
            # flushes. Including the outgoing batches is what lets
            # peers trust min-of-horizons: after the exchange nothing
            # is in transit, so every future event anywhere must chain
            # from state some shard just counted.
            if done:
                horizon = _INF
            else:
                horizon = sim.next_event_time()
                for entry in self._staged:
                    if entry[0] < horizon:
                        horizon = entry[0]
                for batch in outbox.values():
                    for item in batch:
                        if item[3] < horizon:
                            horizon = item[3]
            message = {}
            for peer in peers:
                message[peer] = (horizon, done, outbox[peer])
                outbox[peer] = []
            inbox = yield message
            global_min = horizon
            all_done = done
            for peer in peers:
                peer_horizon, peer_done, frames = inbox[peer]
                for (link_name, dir_key, t1, t2, frame,
                     src_seq) in frames:
                    self._staged.append((t2, peer, src_seq, link_name,
                                         dir_key, t1, frame))
                if peer_horizon < global_min:
                    global_min = peer_horizon
                if not peer_done:
                    all_done = False
            if all_done:
                return
            if done:
                continue
            # Every future firing on any shard happens at or above
            # global_min, so every future input to me arrives at or
            # above global_min + lookahead: that window is safe.
            safe = global_min + self.lookahead
            if safe > target:
                # Complete knowledge below (and at) the phase end: run
                # the closing slice inclusively, like Simulator.run.
                # Everything this slice exports lands above safe, hence
                # beyond the phase — it stays staged for the next one.
                self._release(target, inclusive=True)
                sim.run(until=target)
                done = True
            else:
                self._release(safe, inclusive=False)
                sim.run_below(safe)

    def run_for(self, duration: float) -> Generator[dict, dict, None]:
        """:meth:`Network.run` across the mesh: start (if needed) and
        advance by *duration*; ``yield from`` it like :meth:`run_until`.
        A single engine makes literally that call, so phase tracing
        wrapped around it still sees the run."""
        if self.peers is None:
            self.net.run(duration)
            return
        self.net.start()
        yield from self.run_until(self.sim.now + duration)


# -- lockstep driver ---------------------------------------------------------

def _failure(shard_id: int) -> ShardWorkerError:
    """The exception being handled, as shard *shard_id*'s failure."""
    return ShardWorkerError(f"shard {shard_id}:\n{traceback.format_exc()}")


def run_sharded(worker: Callable[..., Any], shard_count: int,
                args: tuple = ()) -> List[Any]:
    """Run ``worker(shard_id, shard_count, peers, *args)`` K ways.

    Returns the per-shard results in shard order. *peers* is the sorted
    list of the other shards' ids. A worker is either a plain function,
    whose return value is the result, or a generator body whose lockstep
    rounds (:meth:`ShardRuntime.run_until`) this driver steps in the
    calling thread: each round it collects every shard's message and
    hands each shard its peers' messages. ``shard_count == 1`` runs the
    body inline with ``peers=None``; it never yields. *worker* and *args*
    are shared, not copied, so a worker must treat them as read-only.

    A worker that raises fails the run at once with
    :class:`ShardWorkerError` carrying its traceback, and so does a body
    that returns while a peer still yields (the mesh would never
    finish); either way every other body is closed, so nothing is left
    running.
    """
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1: {shard_count}")
    if shard_count == 1:
        body = worker(0, 1, None, *args)
        if not isinstance(body, types.GeneratorType):
            return [body]
        try:
            next(body)
        except StopIteration as stop:
            return [stop.value]
        body.close()
        raise ShardWorkerError("shard 0 yielded a lockstep round on a "
                               "single engine")
    results: List[Any] = [None] * shard_count
    returned: Dict[int, int] = {}      # shard id -> round it returned in
    bodies: Dict[int, Any] = {}
    try:
        for shard_id in range(shard_count):
            peers = [peer for peer in range(shard_count) if peer != shard_id]
            try:
                body = worker(shard_id, shard_count, peers, *args)
            except Exception:
                raise _failure(shard_id) from None
            if isinstance(body, types.GeneratorType):
                bodies[shard_id] = body
            else:
                results[shard_id] = body
                returned[shard_id] = 0
        inboxes: Dict[int, Any] = dict.fromkeys(bodies)
        rounds = 0
        while bodies:
            rounds += 1
            outgoing = {}
            for shard_id, body in list(bodies.items()):
                try:
                    outgoing[shard_id] = body.send(inboxes[shard_id])
                except StopIteration as stop:
                    results[shard_id] = stop.value
                    returned[shard_id] = rounds
                    del bodies[shard_id]
                except Exception:
                    raise _failure(shard_id) from None
            if outgoing and returned:
                quit_id = min(returned)
                still_id = min(outgoing)
                raise ShardWorkerError(
                    f"shard {quit_id} returned in round "
                    f"{returned[quit_id]} while shard {still_id} still "
                    f"yielded in round {rounds}")
            inboxes = {shard_id: {peer: message[shard_id]
                                  for peer, message in outgoing.items()
                                  if peer != shard_id}
                       for shard_id in outgoing}
        return results
    finally:
        for body in bodies.values():
            body.close()


class ShardedSimulator:
    """Facade: one simulation, K shards, one call.

    ``ShardedSimulator(shards=4).run(driver, *args)`` executes the
    module-level *driver* — ``driver(shard_id, shard_count, peers,
    *args)`` — across the shards and returns the per-shard results for
    the caller to merge. Drivers build the full topology from shared
    arguments, adopt it into a :class:`ShardRuntime`, walk the phase
    schedule with ``yield from`` :meth:`ShardRuntime.run_for` and return
    plain data.
    """

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1: {shards}")
        self.shards = shards

    def run(self, worker: Callable[..., Any], *args: Any) -> List[Any]:
        return run_sharded(worker, self.shards, args=args)

    def __repr__(self) -> str:
        return f"<ShardedSimulator shards={self.shards}>"
