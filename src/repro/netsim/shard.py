"""Sharded parallel execution: one simulation across many engines.

One :class:`~repro.netsim.engine.Simulator` is single-threaded by
design; this module runs *one logical simulation* as K cooperating
engines (shards), one worker thread each, synchronized with the
classic conservative null-message protocol (Chandy–Misra–Bryant):
every cut link's propagation latency is *lookahead* — shard A can
promise shard B "nothing from me before ``t + lookahead``" — and each
shard only fires events strictly below the minimum promise it holds
from its peers.

The contract is exact, not approximate: a sharded run produces
**byte-identical experiment records** to the single-process run at any
shard count. The pieces that make that hold:

* **Deterministic partition** — :func:`repro.topology.partition
  .partition_network` is a pure function of the wiring; every worker
  computes the same plan without coordination.
* **Full replica topology** — every worker builds the *entire* network
  with the same builder calls (same names, MACs, IPs, link latencies);
  nodes owned by other shards are *ghosts*: present for bookkeeping,
  never started, so they schedule nothing.
* **Boundary export** — a frame transmitted into a cut link is handed
  to the owning peer as ``(send_time, deliver_time, frame)`` instead of
  a local delivery event (:attr:`_Direction.export`) — the frame object
  itself, not a copy (:mod:`repro.netsim.sync`); the receiver
  schedules the delivery on its own engine at the exact same instant
  the single-process run would have. One engine event per cross-shard
  hop, system-wide — the same event economy as a local hop.
* **Deterministic boundary ordering** — staged remote frames are
  released in ``(deliver_time, src_shard, src_seq)`` order, so
  same-instant boundary deliveries tie-break identically at any shard
  count. (Cross-shard vs local ties at the *exact* same instant remain
  a heap-sequence lottery, like the PR 5 measure-zero caveat; the
  experiment topologies jitter link latencies, which makes exact ties
  measure-zero.)
* **Per-shard RNG derivation** — worker k seeds its engine with
  :func:`derive_shard_seed` (identity at shard 0), so no two shards
  share an RNG stream yet shard 0 reproduces the single-process
  stream. Topology builders always get the *base* seed — wiring must
  be identical everywhere.

Lockstep rounds
---------------

Workers exchange one message with every peer per round — ``(horizon,
done, frames)`` — send-all-then-receive-all, so the mesh cannot
deadlock. A shard's *horizon* is the earliest instant anything it
still holds could fire: its next local event, its earliest staged
remote frame, or the earliest frame in the batches it is flushing in
that very message. Because the exchange is a barrier, channels are
empty between rounds, so every future event anywhere in the system
must chain from state some shard just counted — which makes
``min(all horizons)`` a floor on every future firing, and
``global_min + lookahead`` a floor on every future *input*. Each
round a shard releases staged frames and runs strictly below that
window; a quiet stretch costs one round (the window jumps straight to
the next event time — no null-message creep), a dense burst creeps by
one lookahead per round but fires many events each. When the window
clears the phase target T the shard runs inclusively to T and flags
``done`` — everything that closing slice exports provably lands beyond
T, so it stays staged for the next phase, exactly the single-process
semantics of ``run(until=T)`` leaving future events queued. All
workers observe the all-done round simultaneously, so every phase
costs the same number of rounds everywhere and channels never carry
cross-phase traffic.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.netsim import tracer as trc
from repro.netsim.engine import Simulator
from repro.netsim.errors import TopologyError
from repro.netsim.link import Link
from repro.netsim.sync import Endpoint, make_fabric
from repro.topology.builder import Network
from repro.topology.partition import ShardPlan

_INF = float("inf")

#: Golden-ratio multiplier (Weyl/Fibonacci hashing): spreads shard ids
#: across the 32-bit seed space so derived engine streams decorrelate.
_SEED_MIX = 0x9E3779B9


class ShardWorkerError(RuntimeError):
    """One or more shard workers failed; carries their tracebacks."""


class ShardStallError(ShardWorkerError):
    """The conservative protocol stopped advancing within the budget.

    Raised by :func:`run_sharded`'s watchdog when no shard's progress
    cell (horizon, local time, staged depth) changed for the stall
    budget — the signature of a deadlocked or wedged mesh (a worker
    blocked outside the protocol, a lost message, a cut-link lookahead
    bug). Carries ``snapshot``: the per-shard progress board at the
    moment of the abort, so CI logs show *where* the mesh wedged
    instead of a bare timeout.
    """

    def __init__(self, message: str,
                 snapshot: Dict[int, Dict[str, float]]):
        super().__init__(message)
        self.snapshot = snapshot


#: Default watchdog budget: seconds without observable progress before
#: a sharded run is declared stalled.
_DEFAULT_STALL_S = 300.0

#: Floats per shard on the progress board: rounds, horizon, now,
#: staged. ``rounds`` is excluded from the stall fingerprint — a
#: livelocked mesh can spin rounds without the conservative minimum
#: moving, and that must still count as a stall.
_BOARD_FIELDS = 4


class ProgressBoard:
    """Per-shard protocol progress, shared with the watchdog.

    One flat float list, ``_BOARD_FIELDS`` cells per shard, written
    lock-free by each worker from :meth:`ShardRuntime.run_until` (each
    shard owns its slice; the watchdog only ever reads, and a torn read
    merely delays or hastens one stall check by a round).
    """

    def __init__(self, shard_count: int):
        self.shard_count = shard_count
        self.cells = [0.0] * (_BOARD_FIELDS * shard_count)

    def update(self, shard_id: int, rounds: int, horizon: float,
               now: float, staged: int) -> None:
        base = _BOARD_FIELDS * shard_id
        cells = self.cells
        cells[base] = float(rounds)
        cells[base + 1] = float(horizon)
        cells[base + 2] = float(now)
        cells[base + 3] = float(staged)

    def fingerprint(self) -> Tuple[float, ...]:
        """Everything the stall check compares (rounds excluded)."""
        return tuple(value for index, value in enumerate(self.cells)
                     if index % _BOARD_FIELDS != 0)

    def snapshot(self) -> Dict[int, Dict[str, float]]:
        out: Dict[int, Dict[str, float]] = {}
        for shard_id in range(self.shard_count):
            base = _BOARD_FIELDS * shard_id
            out[shard_id] = {
                "rounds": int(self.cells[base]),
                "horizon": self.cells[base + 1],
                "now": self.cells[base + 2],
                "staged": int(self.cells[base + 3]),
            }
        return out


class _StallWatch:
    """Declare a stall when the board's fingerprint stops changing."""

    def __init__(self, board: ProgressBoard, budget: float):
        self.board = board
        self.budget = budget
        self._fingerprint = board.fingerprint()
        self._since = time.monotonic()

    def stalled(self) -> bool:
        fingerprint = self.board.fingerprint()
        now = time.monotonic()
        if fingerprint != self._fingerprint:
            self._fingerprint = fingerprint
            self._since = now
            return False
        return now - self._since > self.budget

    def error(self) -> ShardStallError:
        snapshot = self.board.snapshot()
        lines = [f"shard mesh stalled: no progress of the conservative "
                 f"global minimum within {self.budget:.1f}s"]
        for shard_id, cell in sorted(snapshot.items()):
            lines.append(
                f"  shard {shard_id}: rounds={cell['rounds']} "
                f"horizon={cell['horizon']} now={cell['now']} "
                f"staged={cell['staged']}")
        return ShardStallError("\n".join(lines), snapshot)


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
    """One worker's half of the conservative protocol.

    Owns the shard's engine plus the boundary state: export hooks on
    cut-link directions, the staged remote frames not yet safe to
    release, the in-flight ledger the memory sampler consults, and the
    per-link carrier history the release-time drop rule replays.
    """

    def __init__(self, sim: Simulator, shard_id: int,
                 endpoint: Optional[Endpoint]):
        self.sim = sim
        self.shard_id = shard_id
        self.endpoint = endpoint
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
        if self.endpoint is not None:
            for peer in self.endpoint.peers:
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
        (they sit in a channel or a staging list), so the single-process
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
            # (repro.netsim.sync), so the hand-over needs no copy.
            runtime._export_seq += 1
            runtime._outbox[dst_shard].append(
                (link_name, dir_key, send_time, deliver_time, frame,
                 runtime._export_seq))
            runtime._ledger.setdefault((link_name, dir_key),
                                       []).append(deliver_time)

        return export

    # -- sampler hook --------------------------------------------------------

    def pending_adjust(self) -> Tuple[int, int]:
        """``(pending_delta, wheel_delta)`` for the memory sampler.

        A frame in flight across the boundary is one pending delivery
        event in the single-process run. Here it is either a frame in a
        channel (counted by the sender's ledger until its deliver time
        passes) or an already-scheduled event on the receiver (counted
        by the receiver's engine **and** still by the sender's ledger —
        so the receiver subtracts its live released events: all its
        cut links' in-flight FIFOs ever hold). Summing both shards'
        samples at one instant therefore reproduces the single-process
        pending count exactly. Wheel delta is zero: deliveries are heap
        events in both worlds.
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
        return sender - released, 0

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

    def run_until(self, target: float) -> None:
        """Advance this shard to global time *target* (inclusive).

        Every worker must call this with the identical target sequence
        — the phase structure is part of the protocol.
        """
        sim = self.sim
        endpoint = self.endpoint
        if endpoint is None:
            sim.run(until=target)
            return
        peers = endpoint.peers
        outbox = self._outbox
        board = endpoint.progress
        rounds = 0
        done = False
        while True:
            rounds += 1
            # My horizon: the earliest instant anything I still hold
            # could fire — next heap/wheel event, earliest staged
            # remote frame, earliest frame in the batches this very
            # message flushes. Including the outgoing batches is what
            # lets peers trust min-of-horizons: after the exchange,
            # every channel is empty, so every future event anywhere
            # must chain from state some shard just counted.
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
            if board is not None:
                # Before the send/recv barrier, so a shard blocked on a
                # wedged peer still published the round it entered with.
                board.update(self.shard_id, rounds, horizon,
                             sim._now, len(self._staged))
            for peer in peers:
                endpoint.send(peer, (horizon, done, outbox[peer]))
                outbox[peer] = []
            global_min = horizon
            all_done = done
            for peer in peers:
                peer_horizon, peer_done, frames = endpoint.recv(peer)
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

    def run_for(self, duration: float) -> None:
        """:meth:`Network.run` across the mesh: start (if needed) and
        advance by *duration*. A single engine makes literally that
        call, so phase tracing wrapped around it still sees the run."""
        if self.endpoint is None:
            self.net.run(duration)
            return
        self.net.start()
        self.run_until(self.sim.now + duration)


# -- worker orchestration ----------------------------------------------------

#: Seconds a broken mesh's workers get to unwind once the fabric is
#: closed, before the error is raised regardless.
_UNWIND_S = 1.0


def run_sharded(worker: Callable[..., Any], shard_count: int,
                args: tuple = (),
                stall_budget: float = _DEFAULT_STALL_S) -> List[Any]:
    """Run ``worker(shard_id, shard_count, endpoint, *args)`` K ways.

    Returns the per-shard results in shard order. ``shard_count == 1``
    runs inline (no fabric, ``endpoint=None``) — the zero-overhead
    degenerate case. Otherwise every shard is one thread of this
    process: GIL-bound, byte-identical by construction, and the same
    path in the main process and inside a daemonic sweep-pool worker
    (which cannot fork children). *worker* and *args* are shared, not
    copied, so a worker must treat them as read-only.

    A progress watchdog guards against a wedged mesh: each worker's
    :meth:`ShardRuntime.run_until` publishes its round state to a
    shared :class:`ProgressBoard`, and if no shard's state changes for
    *stall_budget* seconds the run aborts with :class:`ShardStallError`
    carrying the per-shard snapshot — a hang becomes a named,
    diagnosable failure instead of a CI timeout. A mesh that keeps advancing is never
    aborted, however long it runs.

    On the first worker failure or stall the fabric is closed: every
    peer parked in (or later reaching) :meth:`Endpoint.recv` raises
    :class:`~repro.netsim.sync.ShardTransportError` and unwinds,
    releasing its replica network, before the original error is
    raised. A worker wedged *outside* the protocol (a sleep, a native
    call that never returns) cannot be unwound from a thread: it is a
    daemon thread, left behind after ``_UNWIND_S`` and gone only with
    the process.
    """
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1: {shard_count}")
    if shard_count == 1:
        return [worker(0, 1, None, *args)]
    endpoints = make_fabric(shard_count)
    board = ProgressBoard(shard_count)
    for endpoint in endpoints:
        endpoint.progress = board
    watch = _StallWatch(board, stall_budget)
    results: List[Any] = [None] * shard_count
    failures: List[str] = []

    def main(shard_id: int) -> None:
        try:
            results[shard_id] = worker(shard_id, shard_count,
                                       endpoints[shard_id], *args)
        except BaseException:
            failures.append(f"shard {shard_id}:\n"
                            f"{traceback.format_exc()}")

    threads = [threading.Thread(target=main, args=(shard_id,),
                                name=f"shard-{shard_id}", daemon=True)
               for shard_id in range(shard_count)]
    for thread in threads:
        thread.start()
    # Poll rather than one long join: the first traceback is worth more
    # than waiting out the stragglers.
    stall: Optional[ShardStallError] = None
    while not failures and stall is None \
            and any(thread.is_alive() for thread in threads):
        for thread in threads:
            thread.join(timeout=0.05)
        if watch.stalled():
            stall = watch.error()
    if not failures and stall is None:
        return results
    # Built before the close: the peers' "fabric closed" tracebacks are
    # a consequence, not the report.
    error = ShardWorkerError("\n".join(failures)) if failures else stall
    for endpoint in endpoints:
        endpoint.close()
    deadline = time.monotonic() + _UNWIND_S
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    raise error


class ShardedSimulator:
    """Facade: one simulation, K shards, one call.

    ``ShardedSimulator(shards=4).run(driver, *args)`` executes the
    module-level *driver* — ``driver(shard_id, shard_count, endpoint,
    *args)`` — across the shards and returns the per-shard results for
    the caller to merge. Drivers build the full topology from shared
    arguments, adopt it into a :class:`ShardRuntime`, run the phase
    schedule through :meth:`ShardRuntime.run_until` and return plain
    data.
    """

    def __init__(self, shards: int, stall_budget: float = _DEFAULT_STALL_S):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1: {shards}")
        self.shards = shards
        self.stall_budget = stall_budget

    def run(self, worker: Callable[..., Any], *args: Any) -> List[Any]:
        return run_sharded(worker, self.shards, args=args,
                           stall_budget=self.stall_budget)

    def __repr__(self) -> str:
        return f"<ShardedSimulator shards={self.shards}>"
