"""Ping workloads: the demo's latency probes.

The demo UI "builds graphs to show the latencies obtained" — these are
ping-style RTT series. :class:`PingSeries` sends a train of ICMP echoes
between two hosts and collects per-probe RTTs and losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.frames.ipv4 import IPv4Address
from repro.hosts.host import Host


@dataclass
class PingResult:
    """The outcome of one probe."""

    seq: int
    sent_at: float
    rtt: Optional[float]  # None = lost

    @property
    def lost(self) -> bool:
        return self.rtt is None


class PingSeries:
    """A train of *count* pings from *host* to *dst_ip*.

    Results appear in :attr:`results` as replies arrive; probes never
    answered within *timeout* are recorded as losses when
    :meth:`finalize` runs (scheduled automatically after the last probe).
    """

    def __init__(self, host: Host, dst_ip: IPv4Address, count: int = 10,
                 interval: float = 0.1, payload_size: int = 56,
                 timeout: float = 1.0):
        if count < 1:
            raise ValueError("count must be at least 1")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.host = host
        self.dst_ip = dst_ip
        self.count = count
        self.interval = interval
        self.payload_size = payload_size
        self.timeout = timeout
        self.results: List[PingResult] = []
        self._pending: Dict[int, float] = {}
        self._sent = 0
        self._done = False

    def start(self) -> None:
        """Send the first probe now, the rest at the configured interval."""
        self._send_next()

    def _send_next(self) -> None:
        seq = self._sent
        self._sent += 1
        now = self.host.sim.now
        self._pending[seq] = now
        self.host.ping(self.dst_ip, seq=seq, payload_size=self.payload_size,
                       on_reply=self._on_reply)
        if self._sent < self.count:
            self.host.sim.schedule(self.interval, self._send_next)
        else:
            self.host.sim.schedule(self.timeout, self.finalize)

    def _on_reply(self, seq: int, rtt: float) -> None:
        sent_at = self._pending.pop(seq, None)
        if sent_at is None:
            return  # duplicate or post-timeout reply
        self.results.append(PingResult(seq=seq, sent_at=sent_at, rtt=rtt))

    def finalize(self) -> None:
        """Mark every still-pending probe as lost (idempotent)."""
        if self._done:
            return
        self._done = True
        for seq, sent_at in sorted(self._pending.items()):
            self.results.append(PingResult(seq=seq, sent_at=sent_at,
                                           rtt=None))
        self._pending.clear()
        self.results.sort(key=lambda r: r.seq)

    # -- analysis ----------------------------------------------------------

    @property
    def rtts(self) -> List[float]:
        """RTTs of the answered probes, in probe order."""
        return [r.rtt for r in self.results if r.rtt is not None]

    @property
    def losses(self) -> int:
        return sum(1 for r in self.results if r.lost)
