"""Machine state recorded with every result.

This container's CPU speed swings by up to 2x within minutes (other
guests on the host), so a result without the state it was measured in
cannot be compared. Two fixed pieces of work say what that state was:
``calibrate`` (``env.calib_ns``, a bare arithmetic loop, recorded) and
``yardstick`` (a miniature event loop, timed beside every round and used
to correct the end-to-end times to one machine speed).
"""

from __future__ import annotations

import heapq
import os
import platform
import time
from typing import Any, Dict


def calibrate(iterations: int = 200_000) -> float:
    """``env.calib_ns``: ns per iteration of a fixed pure-Python loop."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return (time.perf_counter_ns() - start) / iterations


#: Seconds the yardstick takes on this 2-CPU box when nothing else runs.
#: Corrected seconds are measured seconds x NOMINAL / yardstick.
NOMINAL_YARDSTICK_S = 0.075


def _yardstick_loop(events: int = 150_000) -> float:
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()
    for seq in range(64):
        push(heap, (seq * 1e-6, seq, seq & 1023))
    for seq in range(64, events):
        now, _, key = pop(heap)
        seen = table.get(key)
        table[key] = (now, seq if seen is None else seen[1] + 1)
        push(heap, (now + 7e-5, seq, (key * 31 + seq) & 1023))
    return time.perf_counter() - start


def yardstick(cpus: int = 1) -> float:
    """Seconds a fixed, self-contained event loop takes right now.

    A frozen miniature of what the simulator does per event — heap push
    and pop, a dict probe, a small allocation — that no change to
    ``src/`` can move. Timed beside every round, it says how fast the
    machine was at that moment. With *cpus* > 1 the loop runs in that
    many processes at once and the mean is returned: a workload that
    keeps two CPUs busy slows down with the machine's spare capacity,
    which one busy CPU does not feel.
    """
    helpers = []
    for _ in range(cpus - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            os.write(write_end, repr(_yardstick_loop()).encode())
            os._exit(0)
        os.close(write_end)
        helpers.append((pid, read_end))
    times = [_yardstick_loop()]
    for pid, read_end in helpers:
        times.append(float(os.read(read_end, 64)))
        os.close(read_end)
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_state() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": _cpu_model(), "loadavg": list(os.getloadavg()),
            "calib_ns": calibrate()}
