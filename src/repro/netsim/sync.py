"""Shard synchronization transport: the channel fabric.

The sharded runtime (:mod:`repro.netsim.shard`) connects K cooperating
engines with an all-to-all mesh of point-to-point channels. Each round
of the conservative protocol, every worker sends every peer exactly one
message — ``(promise, done, frames)`` — and receives exactly one back,
so the mesh never deadlocks and never reorders (each channel is FIFO).

Frames crossing a shard boundary are handed over **by reference**: the
receiving engine schedules the very object the sender transmitted.
That is sound for the reason copy-on-write flooding is
(:mod:`repro.frames.ethernet`): frames and their payloads are
immutable ``__slots__`` values once in flight, ``Port.send`` /
``Node.flood`` mark every transmitted frame ``_shared``, and the one
per-copy mutation — hop recording under ``trace_hops`` — clones a
shared frame first. The remaining writes (``_shared`` itself and the
idempotent ``_wire_size`` / ``_kind`` caches) store the same value from
whichever thread makes them. So the receiver can observe no change the
sender makes after transmit, which is what the parity guarantee
("sharded records are byte-identical to single-engine records") needs,
and it sees the uid, application payload and hop trace the single
engine would (``tests/test_shard.py::TestHandOver``).
"""

from __future__ import annotations

import queue as queue_mod
from typing import Any, Dict, List


class ShardTransportError(RuntimeError):
    """The fabric was closed under a worker still waiting on it."""


#: What :meth:`Endpoint.close` leaves on a channel.
_CLOSED = object()


class Endpoint:
    """One worker's view of the all-to-all channel mesh.

    ``send(dst, message)`` never blocks (channels buffer without
    bound) and ``recv(src)`` blocks until the peer's next message —
    safe under the lockstep round structure, where every worker sends
    to every peer before receiving from any.
    """

    def __init__(self, shard_id: int, senders: Dict[int, Any],
                 receivers: Dict[int, Any]):
        self.shard_id = shard_id
        self._senders = senders
        self._receivers = receivers
        #: Optional shared :class:`repro.netsim.shard.ProgressBoard`;
        #: :func:`repro.netsim.shard.run_sharded` installs one so its
        #: stall watchdog can observe every worker's protocol progress.
        self.progress: Any = None

    @property
    def peers(self) -> List[int]:
        return sorted(self._senders)

    def send(self, dst: int, message: Any) -> None:
        self._senders[dst].put(message)

    def recv(self, src: int) -> Any:
        message = self._receivers[src].get()
        if message is _CLOSED:
            raise ShardTransportError(
                f"shard fabric closed while shard {self.shard_id} waited "
                f"on shard {src}: a peer failed or the mesh stalled")
        return message

    def close(self) -> None:
        """Wake this endpoint's worker out of any ``recv``, now or
        later: one sentinel behind whatever each incoming channel still
        holds. :func:`repro.netsim.shard.run_sharded` closes every
        endpoint when the mesh is broken, so no peer stays parked on a
        shard that will never answer."""
        for channel in self._receivers.values():
            channel.put(_CLOSED)


def make_fabric(shard_count: int) -> List[Endpoint]:
    """Endpoints wired all-to-all over in-process FIFO queues."""
    channels = {(src, dst): queue_mod.SimpleQueue()
                for src in range(shard_count)
                for dst in range(shard_count) if src != dst}
    return [Endpoint(me,
                     senders={dst: channels[(me, dst)]
                              for dst in range(shard_count) if dst != me},
                     receivers={src: channels[(src, me)]
                                for src in range(shard_count) if src != me})
            for me in range(shard_count)]
