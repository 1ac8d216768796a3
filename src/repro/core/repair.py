"""Path Repair bookkeeping (paper §2.1.4).

The repair protocol "emulates an ARP exchange": when a bridge cannot
forward a unicast frame (entry expired, link or bridge failed) it sends
**PathFail** back towards the source; the source's edge bridge then
broadcasts **PathRequest**, whose flooded copies race through the
network exactly like an ARP Request; the target's edge bridge answers
**PathReply**, which travels the winning path re-creating the entries.

This module holds the per-edge-bridge state machine: one pending repair
per lost destination, with bounded frame buffering and retry budget.
The bridge drives it (it owns the simulator clock and the ports).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.frames.ethernet import EthernetFrame
from repro.frames.mac import MAC


@dataclass
class RepairCounters:
    started: int = 0
    passive_started: int = 0
    activated: int = 0
    completed: int = 0
    abandoned: int = 0
    retries: int = 0
    frames_buffered: int = 0
    buffer_overflow: int = 0
    fails_sent: int = 0
    fails_relayed: int = 0
    fails_unroutable: int = 0
    requests_answered: int = 0
    stale_replies: int = 0


@dataclass
class RepairState:
    """One in-progress repair for a lost destination.

    An *active* repair was opened by the source edge bridge: it owns
    the PathRequest race and its retries. A *passive* repair exists at
    a non-edge bridge that detected the failure (or relayed PathFail):
    it only parks in-flight frames, hoping the PathReply passes through
    and re-creates the entry — no control traffic of its own.
    """

    target: MAC
    source: MAC
    seq: int
    retries_left: int
    started_at: float
    buffer: Deque[EthernetFrame]
    retry_event: object = None
    passive: bool = False

    def cancel_timer(self) -> None:
        if self.retry_event is not None:
            self.retry_event.cancel()
            self.retry_event = None


class RepairManager:
    """Pending repairs at one bridge, keyed by lost destination MAC."""

    def __init__(self, buffer_size: int, retry_budget: int):
        self.buffer_size = buffer_size
        self.retry_budget = retry_budget
        self._pending: Dict[MAC, RepairState] = {}
        self.counters = RepairCounters()
        #: Completed repair durations (seconds) — the headline number of
        #: the Fig. 3 experiment.
        self.repair_times: List[float] = []

    def is_pending(self, target: MAC) -> bool:
        return target in self._pending

    def get(self, target: MAC) -> Optional[RepairState]:
        return self._pending.get(target)

    def start(self, target: MAC, source: MAC, seq: int, now: float,
              passive: bool = False) -> RepairState:
        """Open a repair for *target* (caller arms the retry timer)."""
        if target in self._pending:
            raise ValueError(f"repair already pending for {target}")
        state = RepairState(target=target, source=source, seq=seq,
                            retries_left=self.retry_budget, started_at=now,
                            buffer=deque(), passive=passive)
        self._pending[target] = state
        if passive:
            self.counters.passive_started += 1
        else:
            self.counters.started += 1
        return state

    def activate(self, state: RepairState, seq: int) -> None:
        """Promote a passive repair to active (caller re-arms timers)."""
        state.cancel_timer()
        state.passive = False
        state.seq = seq
        state.retries_left = self.retry_budget
        self.counters.activated += 1

    def buffer_frame(self, target: MAC, frame: EthernetFrame) -> bool:
        """Park a data frame until the repair for *target* completes.

        Returns False (frame lost) when no repair is pending or the
        buffer is full.
        """
        state = self._pending.get(target)
        if state is None:
            return False
        if len(state.buffer) >= self.buffer_size:
            self.counters.buffer_overflow += 1
            return False
        state.buffer.append(frame)
        self.counters.frames_buffered += 1
        return True

    def note_retry(self, target: MAC) -> Optional[RepairState]:
        """Consume one retry; returns the state or None when exhausted."""
        state = self._pending.get(target)
        if state is None:
            return None
        if state.retries_left <= 0:
            return None
        state.retries_left -= 1
        self.counters.retries += 1
        return state

    def complete(self, target: MAC, now: float) -> List[EthernetFrame]:
        """Close the repair; returns the buffered frames to re-forward."""
        state = self._pending.pop(target, None)
        if state is None:
            return []
        state.cancel_timer()
        self.counters.completed += 1
        self.repair_times.append(now - state.started_at)
        return list(state.buffer)

    def reset(self) -> int:
        """Abandon every pending repair (bridge restart).

        Cancels all retry timers and returns the total number of
        buffered frames dropped.
        """
        dropped = 0
        for target in self.pending_targets:
            dropped += self.abandon(target)
        return dropped

    def abandon(self, target: MAC) -> int:
        """Give up on *target*; returns the number of frames dropped."""
        state = self._pending.pop(target, None)
        if state is None:
            return 0
        state.cancel_timer()
        self.counters.abandoned += 1
        return len(state.buffer)

    @property
    def pending_targets(self) -> List[MAC]:
        return list(self._pending)

    def __len__(self) -> int:
        return len(self._pending)
