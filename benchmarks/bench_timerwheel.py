"""EXP-E2: engine timer micro-benchmarks (supporting, not from the paper).

Times timer churn — high volume, short deadlines, most timers cancelled
before they fire — and bulk injection. The engine has one event heap,
so both churn workloads schedule on it: ``churn_heap_only`` through
``schedule`` and ``churn_wheel`` through ``schedule_timer`` (``schedule``
at ``PRIORITY_LATE``). The ``timer_churn_wheel`` name stays because
``check_regression.py`` reads it.

Run with ``pytest benchmarks/bench_timerwheel.py --benchmark-only``.

``python benchmarks/bench_timerwheel.py`` re-measures the engine
baselines and rewrites ``benchmarks/BENCH_engine.json`` so future PRs
have a perf trajectory to compare against.
"""

from repro.netsim.engine import Simulator

#: Timers per churn round; ~the entry count of a busy locked table.
CHURN_TIMERS = 10_000
#: One timer in CHURN_STRIDE survives; the rest are cancelled before
#: firing (aging entries are usually refreshed, so their timers usually
#: die unfired).
CHURN_STRIDE = 10
#: Timers that actually fire per churn round.
CHURN_FIRED = len(range(0, CHURN_TIMERS, CHURN_STRIDE))


def _churn(schedule) -> Simulator:
    """Schedule CHURN_TIMERS short timers, cancel most, run to drain."""
    sim = Simulator(seed=0)
    events = [schedule(sim, 0.1 + (i % 97) * 0.01)
              for i in range(CHURN_TIMERS)]
    for index, event in enumerate(events):
        if index % CHURN_STRIDE != 0:
            event.cancel()
    sim.run()
    return sim


def churn_heap_only() -> Simulator:
    """The pre-wheel pattern: every timer is a heap event."""
    return _churn(lambda sim, delay: sim.schedule(delay, lambda: None))


def churn_wheel() -> Simulator:
    """The same churn through ``schedule_timer``."""
    return _churn(lambda sim, delay: sim.schedule_timer(delay, lambda: None))


def bulk_injection() -> Simulator:
    """schedule_bulk: one heapify instead of n pushes."""
    sim = Simulator(seed=0)
    sim.schedule_bulk((0.1 + (i % 97) * 0.01, lambda: None)
                      for i in range(CHURN_TIMERS))
    sim.run()
    return sim


def test_timer_churn_heap_only(benchmark):
    sim = benchmark(churn_heap_only)
    assert sim.events_processed == CHURN_FIRED


def test_timer_churn_wheel(benchmark):
    sim = benchmark(churn_wheel)
    assert sim.events_processed == CHURN_FIRED


def test_bulk_injection(benchmark):
    sim = benchmark(bulk_injection)
    assert sim.events_processed == CHURN_TIMERS


def _measure(fn, rounds: int = 5) -> float:
    """Best wall-clock seconds over *rounds* runs (after one warm-up)."""
    import time
    fn()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def flood_workload() -> Simulator:
    """The bench_engine flood-heavy workload (grid fabric + ARP race)."""
    from repro.topology import arppath, grid

    sim = Simulator(seed=0)
    net = grid(sim, arppath(), 4, 4, hosts_at_corners=True)
    net.run(2.0)
    net.host("H0").gratuitous_arp()
    net.run(1.0)
    return sim


def regenerate_baseline(path: str = None) -> dict:
    """Measure the engine baselines and write BENCH_engine.json."""
    import json
    import os

    if path is None:
        path = os.path.join(os.path.dirname(__file__), "BENCH_engine.json")

    flood_sim = flood_workload()
    flood_dt = _measure(flood_workload)
    heap_dt = _measure(churn_heap_only)
    wheel_dt = _measure(churn_wheel)
    fired = CHURN_FIRED
    baseline = {
        "workloads": {
            "flood_grid4x4": {
                "description": "bench_engine flood workload: 4x4 ARP-Path "
                               "grid warm-up + gratuitous ARP race",
                "events": flood_sim.events_processed,
                "events_per_sec": round(flood_sim.events_processed
                                        / flood_dt),
            },
            "timer_churn_heap_only": {
                "description": f"{CHURN_TIMERS} short timers, "
                               f"{100 - 100 // CHURN_STRIDE}% cancelled,"
                               " heap-scheduled",
                "events_fired": fired,
                "wall_seconds": round(heap_dt, 6),
            },
            "timer_churn_wheel": {
                "description": f"{CHURN_TIMERS} short timers, "
                               f"{100 - 100 // CHURN_STRIDE}% cancelled,"
                               " wheel-scheduled",
                "events_fired": fired,
                "wall_seconds": round(wheel_dt, 6),
                "speedup_vs_heap": round(heap_dt / wheel_dt, 3),
            },
        },
    }
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline


if __name__ == "__main__":
    import json

    print(json.dumps(regenerate_baseline(), indent=2, sort_keys=True))
