"""The demo's video stream: a CBR source and a gap-detecting sink.

Paper §3.2 streams a video between two hosts and shows that Path Repair
keeps the stream watchable across link failures. The observable is not
pixels but *continuity*: the sink records per-chunk arrivals, and any
interruption shows up as a gap in arrival times and a run of lost
sequence numbers — which is what we measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.frames.ipv4 import IPv4Address, IPv4Packet
from repro.hosts.host import Host
from repro.metrics.availability import DEFAULT_GAP_THRESHOLD

DEFAULT_FPS = 25.0
DEFAULT_CHUNK_SIZE = 1400
DEFAULT_PORT = 9000
#: Gap factor (in stream intervals) above which a stall is visible —
#: shared with the availability metrics so the sink's interruption
#: accounting and the churn experiment's outage detection agree.
DEFAULT_STALL_THRESHOLD = DEFAULT_GAP_THRESHOLD


@dataclass(frozen=True, slots=True, init=False)
class VideoChunk:
    """One video frame's worth of payload.

    The ``__init__`` is written out, one per chunk sent: it checks its
    arguments and writes the slots directly, where the generated one
    calls ``object.__setattr__`` per field and then ``__post_init__``
    for the checks, at twice the cost.
    """

    seq: int
    sent_at: float
    size: int = DEFAULT_CHUNK_SIZE

    def __init__(self, seq: int, sent_at: float,
                 size: int = DEFAULT_CHUNK_SIZE):
        if seq < 0:
            raise ValueError("chunk seq must be non-negative")
        if size <= 0:
            raise ValueError("chunk size must be positive")
        _set_seq(self, seq)
        _set_sent_at(self, sent_at)
        _set_size(self, size)

    @property
    def wire_size(self) -> int:
        return self.size


_set_seq = VideoChunk.seq.__set__
_set_sent_at = VideoChunk.sent_at.__set__
_set_size = VideoChunk.size.__set__


@dataclass
class Interruption:
    """One continuous run of missing/late chunks seen by the sink."""

    start: float
    end: float
    chunks_lost: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class VideoSource:
    """Sends CBR chunks from *host* to *dst_ip* at *fps*."""

    def __init__(self, host: Host, dst_ip: IPv4Address,
                 fps: float = DEFAULT_FPS,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 port: int = DEFAULT_PORT):
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.host = host
        self.dst_ip = dst_ip
        self.interval = 1.0 / fps
        self.chunk_size = chunk_size
        self.port = port
        self.sent = 0
        self._timer = None

    def start(self) -> None:
        """Begin streaming (first chunk goes out after one interval)."""
        if self._timer is not None:
            raise RuntimeError("video source already started")
        self._timer = self.host.sim.schedule_periodic(
            self.interval, self._send_chunk)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def _send_chunk(self) -> None:
        chunk = VideoChunk(self.sent, self.host.sim._now, self.chunk_size)
        self.sent += 1
        self.host.send_udp(self.dst_ip, self.port, self.port, chunk)


class VideoSink:
    """Receives chunks, recording arrivals, losses and interruptions.

    *stall_threshold* is expressed in stream intervals: a gap between
    consecutive arrivals longer than ``threshold x interval`` counts as
    a visible interruption (a playback stall).
    """

    def __init__(self, host: Host, fps: float = DEFAULT_FPS,
                 port: int = DEFAULT_PORT,
                 stall_threshold: float = DEFAULT_STALL_THRESHOLD):
        self.host = host
        self.interval = 1.0 / fps
        self.stall_threshold = stall_threshold
        self.port = port
        self.arrivals: List[float] = []
        self.latencies: List[float] = []
        self.seqs: List[int] = []
        self.duplicates = 0
        self.reordered = 0
        self._seen: set = set()
        self._highest_seq: Optional[int] = None
        host.bind_udp(port, self._on_chunk)

    def _on_chunk(self, src_ip: IPv4Address, sport: int, payload: Any,
                  packet: IPv4Packet) -> None:
        if not isinstance(payload, VideoChunk):
            return
        now, seq = self.host.sim._now, payload.seq
        if seq in self._seen:
            self.duplicates += 1
            return
        self._seen.add(seq)
        if self._highest_seq is not None and seq < self._highest_seq:
            self.reordered += 1
        self._highest_seq = max(self._highest_seq or 0, seq)
        self.arrivals.append(now)
        self.latencies.append(now - payload.sent_at)
        self.seqs.append(seq)

    # -- analysis ----------------------------------------------------------

    @property
    def received(self) -> int:
        return len(self.arrivals)

    def interruptions(self) -> List[Interruption]:
        """Stalls: arrival gaps exceeding the stall threshold."""
        limit = self.stall_threshold * self.interval
        stalls: List[Interruption] = []
        for prev, cur, prev_seq, cur_seq in zip(
                self.arrivals, self.arrivals[1:], self.seqs, self.seqs[1:]):
            if cur - prev > limit:
                stalls.append(Interruption(start=prev, end=cur,
                                           chunks_lost=cur_seq - prev_seq - 1))
        return stalls


def stream_between(source_host: Host, sink_host: Host,
                   fps: float = DEFAULT_FPS,
                   chunk_size: int = DEFAULT_CHUNK_SIZE,
                   port: int = DEFAULT_PORT,
                   stall_threshold: float = DEFAULT_STALL_THRESHOLD):
    """Wire a source on *source_host* to a sink on *sink_host*.

    Returns ``(source, sink)``; the caller starts the source.
    """
    sink = VideoSink(sink_host, fps=fps, port=port,
                     stall_threshold=stall_threshold)
    source = VideoSource(source_host, sink_host.ip, fps=fps,
                         chunk_size=chunk_size, port=port)
    return source, sink
