"""EXP-E4: engine throughput and memory at scale (supporting).

The scale scenario (``experiments/scale.py``) sweeps topology size for
its *metrics*; this bench measures what size costs the *engine*: a
flood-heavy ARP-Path workload — grid fabric warm-up plus a bulk
gratuitous-ARP race from every corner host — at n = 25, 100 and 225
bridges, recording events/second and the process's peak RSS
(:mod:`repro.netsim.meminfo`). Peak RSS is exactly the machine-
dependent number the scale scenario keeps *out* of its records rows;
here, in a benchmark JSON, is where it belongs.

Since PR 5 (free-running transmitters) the same workload needs far
fewer events — an uncongested hop schedules one delivery event, not a
``tx_done`` pair — so raw events/s is no longer comparable across the
event-model change: halving the event count halves the numerator too.
Two workload-invariant figures are therefore recorded alongside it:

* ``deliveries_per_sec`` — link deliveries per wall second; the frame
  economy is byte-identical across PR 4/PR 5 (parity is pinned by the
  golden tests), so this number compares engines fairly.
* ``events_per_payload`` — events burnt per delivered frame, the
  efficiency metric this PR drives down (deterministic; guarded with
  an inverted tolerance by ``check_regression.py``).

The ``reference`` block pins the PR-4 event counts so cross-PR
throughput can be read in *PR-4 event units* (``pr4_events / fresh
wall``): the workload is identical, the new engine just needs fewer
events to execute it. Compare ``n225_pr4_event_units_per_sec``
against ``pr4_n225_events_per_sec`` only when the machine states
match — this container's CPU speed swings ~2x within a session, so
the controlled cross-PR figure is the *pinned*
``n225_back_to_back_wall_speedup_vs_pr4`` (old and new trees measured
interleaved in one state).

Run with ``pytest benchmarks/bench_scale.py --benchmark-only``.

``python benchmarks/bench_scale.py`` re-measures and rewrites
``benchmarks/BENCH_scale.json``.
"""

import random

from repro.netsim.engine import Simulator
from repro.netsim.meminfo import MemorySampler, peak_rss_bytes
from repro.topology import arppath, grid
from repro.topology.library import populate_access_ports
from repro.traffic.matrix import TrafficMatrix

#: Bridge counts measured (perfect squares: n = side x side grids).
SIZES = (25, 100, 225)

#: The million-endpoint axis: total simulated endpoints parked behind
#: the n=225 grid's access ports (flyweight populations), swept while
#: the flow count stays fixed — the flyweight claim is that endpoint
#: count costs addresses, not objects, events or wall time.
POPULATION_N = 225
POPULATION_ENDPOINTS = (1_000, 10_000, 100_000)
#: Heavy-tailed flows run over the populations in every cell.
POPULATION_FLOWS = 256

#: Flood events/s recorded by BENCH_engine.json immediately before the
#: PR-4 hot-path slimming pass, on this repo's reference container.
PRE_PR_FLOOD_EVENTS_PER_SEC = 78937

#: Events the PR-4 (per-frame tx_done) event model needed for these
#: exact workloads (from the PR-4 BENCH_scale.json): the anchor for
#: cross-event-model throughput comparison.
PR4_FLOOD_EVENTS = {25: 1163, 100: 5008, 225: 11603}
#: Flood events/s PR 4 recorded at n=225 on this container.
PR4_N225_EVENTS_PER_SEC = 206368
#: Wall-clock speedup of the n=225 workload, PR-5 engine vs PR-4
#: engine, measured interleaved (git stash) in one machine state at
#: PR-5 time: old best 0.0554-0.0566 s vs new best 0.0339-0.0353 s
#: over repeated pairs. Hand-pinned like the anchors above because a
#: regenerate on a different machine state cannot reproduce it — this
#: container's CPU speed swings ~2x within a session.
PR4_BACK_TO_BACK_WALL_SPEEDUP = 1.63


def scale_flood(n: int) -> Simulator:
    """The flood workload at *n* bridges: warm grid + 4-corner ARP race.

    Host announcements go through ``Network.announce_hosts`` — one
    ``schedule_bulk`` batch — so the workload exercises the bulk
    injection path the scale experiments rely on.
    """
    side = int(round(n ** 0.5))
    sim = Simulator(seed=0)
    net = grid(sim, arppath(), side, side, hosts_at_corners=True)
    net.run(2.0)
    net.announce_hosts()
    net.run(1.0)
    return sim


def population_flood(n: int = POPULATION_N,
                     endpoints: int = POPULATION_ENDPOINTS[0],
                     flows: int = POPULATION_FLOWS):
    """Heavy-tailed traffic over *endpoints* flyweight endpoints.

    Warm *n*-bridge grid, populations behind the corner-host access
    ports, then ``POPULATION_FLOWS`` elephant/mice flows (Zipf sources,
    generation-time draws from seed 0) in one ``schedule_bulk`` batch.
    Returns ``(sim, net, sampler)`` with the sampler holding the
    deterministic engine-memory peaks.
    """
    side = int(round(n ** 0.5))
    sim = Simulator(seed=0)
    net = grid(sim, arppath(), side, side, hosts_at_corners=True)
    populate_access_ports(net, max(endpoints // len(net.hosts), 1))
    sampler = MemorySampler(sim, interval=0.5)
    sampler.start()
    net.run(2.0)
    matrix = TrafficMatrix(net)
    matrix.elephant_mice(count=flows, rng=random.Random(0),
                         endpoints=sorted(net.populations))
    matrix.start(stagger=1e-4, bulk=True)
    net.run(2.5)
    sampler.stop()
    return sim, net, sampler


def test_scale_flood_smallest(benchmark):
    sim = benchmark(lambda: scale_flood(SIZES[0]))
    assert sim.events_processed > 0


def test_scale_flood_largest(benchmark):
    sim = benchmark(lambda: scale_flood(SIZES[-1]))
    assert sim.events_processed > 0


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


def regenerate_baseline(path: str = None) -> dict:
    """Measure the scale baselines and write BENCH_scale.json."""
    import json
    import multiprocessing
    import os

    if path is None:
        path = os.path.join(os.path.dirname(__file__), "BENCH_scale.json")

    workloads = {}
    walls = {}
    for n in SIZES:
        sim = scale_flood(n)
        best = _measure(lambda n=n: scale_flood(n))
        walls[n] = best
        delivered = sim.tracer.frames_delivered
        workloads[f"flood_grid_n{n}"] = {
            "description": f"{n}-bridge ARP-Path grid warm-up + bulk "
                           "4-corner gratuitous-ARP race",
            "bridges": n,
            "events": sim.events_processed,
            "events_per_sec": round(sim.events_processed / best),
            "wall_seconds": round(best, 6),
            "frames_delivered": delivered,
            # Workload-invariant across event-model changes: the frame
            # economy is pinned byte-identical by the golden tests.
            "deliveries_per_sec": round(delivered / best),
            # Efficiency metric (lower is better; deterministic):
            # engine events burnt per delivered frame.
            "events_per_payload": round(
                sim.events_processed / max(delivered, 1), 3),
            # Monotonic process high-water mark, sampled after this
            # workload (sizes run smallest-first, so growth between
            # entries is attributable to the larger fabric).
            "peak_rss_mib": round(peak_rss_bytes() / (1024 * 1024), 1),
        }
    for endpoints in POPULATION_ENDPOINTS:
        sim, net, sampler = population_flood(POPULATION_N, endpoints)
        best = _measure(
            lambda e=endpoints: population_flood(POPULATION_N, e),
            rounds=2)
        delivered = sim.tracer.frames_delivered
        workloads[f"population_grid_n{POPULATION_N}_e{endpoints}"] = {
            "description": f"{POPULATION_N}-bridge grid, {endpoints} "
                           f"flyweight endpoints, {POPULATION_FLOWS} "
                           "heavy-tailed (Zipf elephant/mice) flows",
            "bridges": POPULATION_N,
            "endpoints": net.endpoint_count(),
            "flows": POPULATION_FLOWS,
            "events": sim.events_processed,
            "wall_seconds": round(best, 6),
            "frames_delivered": delivered,
            "deliveries_per_sec": round(delivered / best),
            "events_per_payload": round(
                sim.events_processed / max(delivered, 1), 3),
            # Deterministic engine-memory ceiling (MemorySampler peaks
            # — simulation state, not process RSS) and its per-endpoint
            # quotient: the flyweight claim is that this stays decoupled
            # from the endpoint count.
            "peak_pending_events": sampler.peak_pending_events,
            "peak_wheel_timers": sampler.peak_wheel_timers,
            "peak_pending_per_endpoint": round(
                sampler.peak_pending_events / endpoints, 6),
            "peak_rss_mib": round(peak_rss_bytes() / (1024 * 1024), 1),
        }
    largest = SIZES[-1]
    largest_rate = workloads[f"flood_grid_n{largest}"]["events_per_sec"]
    baseline = {
        "workloads": workloads,
        # Machine context for the wall-clock figures.
        "cpus": multiprocessing.cpu_count(),
        "reference": {
            "pre_pr_flood_events_per_sec": PRE_PR_FLOOD_EVENTS_PER_SEC,
            f"n{largest}_speedup_vs_pre_pr": round(
                largest_rate / PRE_PR_FLOOD_EVENTS_PER_SEC, 2),
            "pr4_flood_events": {str(n): PR4_FLOOD_EVENTS[n]
                                 for n in SIZES},
            "pr4_n225_events_per_sec": PR4_N225_EVENTS_PER_SEC,
            # The identical workload in PR-4 event units (PR-4 event
            # count / fresh wall); same machine state as every other
            # number in this file.
            f"n{largest}_pr4_event_units_per_sec": round(
                PR4_FLOOD_EVENTS[largest] / walls[largest]),
            f"n{largest}_back_to_back_wall_speedup_vs_pr4":
                PR4_BACK_TO_BACK_WALL_SPEEDUP,
        },
    }
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline


if __name__ == "__main__":
    import json

    fresh = regenerate_baseline()
    print(json.dumps(fresh, indent=2, sort_keys=True))
    largest = fresh["workloads"][f"flood_grid_n{SIZES[-1]}"]
    print(f"n={SIZES[-1]}: {largest['events_per_sec']:,} events/s, "
          f"{largest['deliveries_per_sec']:,} deliveries/s "
          f"(cpus: {fresh['cpus']})")
