"""Shard synchronization transport: frame packing and channel fabrics.

The sharded runtime (:mod:`repro.netsim.shard`) connects K cooperating
engines with an all-to-all mesh of point-to-point channels. Each round
of the conservative protocol, every worker sends every peer exactly one
message — ``(promise, done, frames)`` — and receives exactly one back,
so the mesh never deadlocks and never reorders (each channel is FIFO).

Frames crossing a shard boundary travel **by value**: the sender runs
the wire codec (:mod:`repro.frames.codec`) and ships bytes, the
receiver decodes a fresh frame object. That is deliberate even though
the workers are threads and references would be cheaper — the receiver
never sees an object the sender can still mutate, which is what the
parity guarantee ("sharded records are byte-identical to single-engine
records") rests on, and the codec round-trip is precisely the
serialisation a distributed run would need. Two fields do not survive
the wire codec and ride alongside the bytes instead:

* the frame ``uid`` (a simulator-side identity, not an on-wire field),
* an application payload object buried under UDP (the codec encodes
  unknown payloads as opaque zeros of their wire size; the receiving
  host needs the real object — e.g. a ``VideoChunk`` — to account the
  stream). Such objects must be value-semantic.

BPDU and LSP ethertypes register their codecs at import of the
protocol modules, so this module imports both: a worker that receives
a control frame of either kind must be able to decode it.
"""

from __future__ import annotations

import queue as queue_mod
from typing import Any, Dict, List, Tuple

from repro.frames.codec import decode_frame, encode_frame
from repro.frames.ethernet import EthernetFrame
from repro.frames.ipv4 import IPv4Packet
from repro.frames.udp import UdpDatagram

# Register the BPDU, LSP and controller ethertype codecs (import side
# effect).
import repro.stp.codec   # noqa: F401
import repro.spb.codec   # noqa: F401
import repro.switching.controller.codec   # noqa: F401


class ShardTransportError(RuntimeError):
    """A frame cannot be moved between shards losslessly, or the fabric
    was closed under a worker still waiting on it."""


#: What :meth:`Endpoint.close` leaves on a channel.
_CLOSED = object()


def pack_frame(frame: EthernetFrame) -> Tuple[bytes, int, Any]:
    """Serialise *frame* for the wire: ``(codec_bytes, uid, aux)``.

    *aux* carries the one payload layer the byte codec flattens to
    opaque zeros: an application object under UDP (``IPv4Packet`` →
    ``UdpDatagram`` → object). Every other payload the simulator ships
    round-trips losslessly through the codec (ICMP echo payloads are
    literal bytes; ARP, ARP-Path control, BPDU and LSP have exact
    codecs), so aux is None for them.
    """
    aux: Any = None
    payload = frame.payload
    if isinstance(payload, IPv4Packet):
        inner = payload.payload
        if isinstance(inner, UdpDatagram) \
                and not isinstance(inner.payload, (bytes, bytearray)):
            aux = inner.payload
    elif not isinstance(payload, (bytes, bytearray)):
        from repro.frames.codec import _ethertype_codecs
        if frame.ethertype not in _ethertype_codecs:
            raise ShardTransportError(
                f"cannot transport object payload of unregistered "
                f"ethertype 0x{frame.ethertype:04x} between shards: "
                f"{payload!r}")
    return encode_frame(frame), frame.uid, aux


def unpack_frame(data: bytes, uid: int, aux: Any) -> EthernetFrame:
    """Rebuild a frame shipped by :func:`pack_frame`.

    The decoded frame is a fresh, private object (not ``_shared``); the
    original uid is restored so broadcast-copy correlation in trace
    records survives the boundary, and *aux* is grafted back under the
    UDP layer the codec zeroed.
    """
    frame = decode_frame(data)
    frame.uid = uid
    if aux is not None:
        frame.payload.payload.payload = aux
    return frame


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
