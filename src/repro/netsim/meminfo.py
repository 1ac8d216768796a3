"""Lightweight memory introspection: process RSS and engine footprint.

Two kinds of "memory" matter to the scale experiments, and they must
not be mixed up:

* **Process memory** (:func:`rss_bytes`, :func:`peak_rss_bytes`) —
  resident-set size read from ``/proc/self/status`` (``VmRSS`` /
  ``VmHWM``), falling back to :mod:`resource` where procfs is absent.
  These numbers are machine- and process-layout-dependent, so they are
  recorded only by benchmarks (``benchmarks/BENCH_scale.json``), never
  in experiment ``records()`` rows — a sweep cell's rows must be
  byte-identical at any ``--jobs`` level, and a pool worker's RSS is
  not.

* **Engine footprint** (:class:`MemorySampler`) — the simulator's own
  logical memory: pending events on the heap. It is a pure function of
  the simulation, so its peak is deterministic; being engine
  bookkeeping, it travels beside records (a ``scale`` cell's
  ``CellResult.telemetry``), never in them. The sampler's ticks are
  :meth:`~repro.netsim.engine.Simulator.schedule_timer` events on the
  same heap it observes.
"""

from __future__ import annotations

from typing import Optional

_PROC_STATUS = "/proc/self/status"


def _read_status_kib(field: str) -> Optional[int]:
    """One ``kB`` field from ``/proc/self/status``, or None off-Linux."""
    try:
        with open(_PROC_STATUS) as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _rusage_peak_kib() -> int:
    """Peak RSS via getrusage (KiB on Linux, bytes on macOS)."""
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak // 1024
    return peak


def rss_bytes() -> int:
    """Current resident-set size of this process in bytes.

    Where ``/proc`` is unavailable the *peak* RSS is returned instead
    (the closest portable approximation; it only ever over-reports).
    """
    kib = _read_status_kib("VmRSS")
    if kib is None:
        kib = _rusage_peak_kib()
    return kib * 1024


def peak_rss_bytes() -> int:
    """High-water-mark resident-set size of this process in bytes."""
    kib = _read_status_kib("VmHWM")
    if kib is None:
        kib = _rusage_peak_kib()
    return kib * 1024


class MemorySampler:
    """Periodic sampler of the engine's logical footprint.

    Arms a repeating timer on the simulator and records, at every tick,
    the number of pending events; :attr:`peak_pending_events` holds the
    high-water mark. It is deterministic (it depends only on the
    simulation).

    With ``track_rss=True`` the sampler additionally tracks
    :func:`rss_bytes` peaks — benchmark-only; see the module docs.

    Usage::

        sampler = MemorySampler(sim, interval=0.5)
        sampler.start()
        net.run(...)
        sampler.stop()
        sampler.peak_pending_events
    """

    __slots__ = ("sim", "interval", "track_rss", "samples",
                 "peak_pending_events", "peak_rss", "series", "_adjust",
                 "_event", "_stopped", "_count_self")

    #: Always 0: the engine has one queue. Kept until the benchmark stops
    #: reading it (``bench/trace.py``, ``engine.peak_wheel_timers``).
    peak_wheel_timers = 0

    def __init__(self, sim, interval: float = 0.5,
                 track_rss: bool = False, record_series: bool = False,
                 adjust=None, count_self: bool = True):
        if interval <= 0:
            raise ValueError(f"sample interval must be > 0: {interval}")
        self.sim = sim
        self.interval = interval
        self.track_rss = track_rss
        self.samples = 0
        self.peak_pending_events = 0
        #: Peak process RSS in bytes (0 unless ``track_rss``).
        self.peak_rss = 0
        #: With ``record_series=True``, the full per-sample sequence of
        #: pending-event counts. The sharded runtime needs the
        #: whole series, not just peaks: per-shard peaks occur at
        #: different instants, so a whole-simulation peak is the max of
        #: the *per-instant sums* across shards.
        self.series = [] if record_series else None
        #: Optional callable returning a pending-event delta added to
        #: every sample — the shard runtime's hook for counting frames
        #: that are in flight between shards (and so in no local heap)
        #: at the sampling instant.
        self._adjust = adjust
        #: With ``count_self=False`` the sampler's own live tick timer is
        #: subtracted from every sample. A sharded run has one sampler
        #: per shard but must report the footprint of the one simulation;
        #: exactly one sampler (shard 0's) plays the single-process
        #: sampler's part and the K-1 others efface themselves.
        self._count_self = count_self
        self._event = None
        self._stopped = False

    def start(self) -> None:
        """Take a first sample now and begin periodic sampling."""
        self._stopped = False
        self._sample()
        self._arm()

    def stop(self) -> None:
        """Stop sampling (takes one final sample for the peaks)."""
        if self._stopped:
            return
        self._stopped = True
        self._sample()
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _arm(self) -> None:
        self._event = self.sim.schedule_timer(self.interval, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._sample()
        self._arm()

    def _sample(self) -> None:
        self.samples += 1
        pending = self.sim.pending_events
        if self._adjust is not None:
            pending += self._adjust()
        if not self._count_self:
            event = self._event
            if event is not None and event._sim is not None:
                # Our own armed tick timer: off the books.
                pending -= 1
        if self.series is not None:
            self.series.append(pending)
        if pending > self.peak_pending_events:
            self.peak_pending_events = pending
        if self.track_rss:
            rss = rss_bytes()
            if rss > self.peak_rss:
                self.peak_rss = rss

    def __repr__(self) -> str:
        return (f"<MemorySampler samples={self.samples} "
                f"peak_pending={self.peak_pending_events}>")
