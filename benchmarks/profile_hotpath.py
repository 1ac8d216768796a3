"""Profile the dataplane hot path so perf PRs are data-driven.

Runs the n=100 flood workload from :mod:`bench_scale` (grid warm-up +
bulk gratuitous-ARP race) under :mod:`cProfile` and prints the top
cumulative-time lines — the exact workload the scale bench guards, so
a line that climbs this table is a line that will move
``BENCH_scale.json``.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py            # table
    PYTHONPATH=src python benchmarks/profile_hotpath.py --json out.json
    PYTHONPATH=src python benchmarks/profile_hotpath.py --shards 4

``--shards N`` profiles the same workload under the sharded runtime
(:mod:`repro.netsim.shard`, one merged profile across the worker
threads), so protocol costs — lockstep rounds, frame codec
round-trips, staged-frame release — land in the same table as the
dataplane they tax.

The plain invocation (no ``--shards`` / ``--endpoints``) also profiles
one warm **unicast train** — a 2 000-packet flow over an 8-bridge
ARP-Path line whose path is already LEARNT — so ``on_unicast`` /
``learn`` / ``get`` show their cumulative shares next to the flood's.

``--json`` writes the same top-N rows as a JSON artifact (CI uploads it
from the bench-guard job) with per-function ``ncalls`` / ``tottime`` /
``cumtime``, plus the workload's event count and wall time, so
consecutive CI runs can be diffed mechanically.
"""

import argparse
import cProfile
import io
import json
import os
import pstats
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import bench_scale  # noqa: E402  (path set up above)
import bench_shard  # noqa: E402

#: Bridge count profiled; big enough that the dataplane dominates the
#: topology build, small enough for a sub-second CI step.
PROFILE_N = 100
#: Rows printed / exported.
TOP = 20


def profile_flood(n: int = PROFILE_N):
    """Profile one flood workload; returns (stats, events, wall)."""
    bench_scale.scale_flood(n)  # warm-up: imports, allocator, caches
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    sim = bench_scale.scale_flood(n)
    profiler.disable()
    wall = time.perf_counter() - start
    return pstats.Stats(profiler), sim.events_processed, wall


def profile_unicast_train(bridges: int = 8, packets: int = 2000):
    """Profile a warm unicast flow over a line; (stats, events, wall).

    The table hit path and nothing else: every frame learns its source
    and looks its destination up once per hop (the workload
    ``tests/test_hotpath_cost.py`` counts calls on).
    """
    from repro.netsim.engine import Simulator
    from repro.topology import line
    from repro.topology.factories import arppath
    from repro.traffic.matrix import TrafficMatrix

    sim = Simulator(seed=1, keep_trace_records=False)
    net = line(sim, arppath(), bridges)
    net.run(5.0)
    matrix = TrafficMatrix(net)
    matrix.add_flow("H0", "H1", packets=50 + packets, interval=1e-4)
    matrix.start()
    net.run(0.005)  # ARP race + the first ~50 packets: path LEARNT
    before = sim.events_processed
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    sim.run_for(packets * 1e-4)
    profiler.disable()
    wall = time.perf_counter() - start
    return pstats.Stats(profiler), sim.events_processed - before, wall


def profile_population(n: int = PROFILE_N, endpoints: int = 10_000):
    """Profile the heavy-tailed population workload (bench_scale)."""
    bench_scale.population_flood(n, endpoints)  # warm-up
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    sim, _net, _sampler = bench_scale.population_flood(n, endpoints)
    profiler.disable()
    wall = time.perf_counter() - start
    return pstats.Stats(profiler), sim.events_processed, wall


def profile_flood_sharded(n: int = PROFILE_N, shards: int = 2):
    """Profile the sharded flood; returns (stats, events, wall).

    One profiler per worker thread (``cProfile`` only
    observes the thread that enabled it), merged afterwards — so the
    table includes the shard runtime itself: ``run_until`` rounds,
    frame packing, staged-frame release.
    """
    from repro.netsim.shard import run_sharded

    bench_shard.sharded_flood(n, shards)  # warm-up
    profilers = []

    def worker(shard_id, shard_count, endpoint, n, seed):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return bench_shard.sharded_flood_worker(
                shard_id, shard_count, endpoint, n, seed)
        finally:
            profiler.disable()
            profilers.append(profiler)

    start = time.perf_counter()
    results = run_sharded(worker, shards, args=(n, 0))
    wall = time.perf_counter() - start
    stats = pstats.Stats(profilers[0])
    for profiler in profilers[1:]:
        stats.add(profiler)
    events = sum(result["events"] for result in results)
    return stats, events, wall


def top_rows(stats: pstats.Stats, limit: int = TOP):
    """The *limit* hottest functions by cumulative time, as dicts."""
    entries = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():
        filename, line, name = func
        entries.append({
            "file": filename,
            "line": line,
            "function": name,
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    entries.sort(key=lambda row: row["cumtime_s"], reverse=True)
    return entries[:limit]


def print_table(label: str, stats: pstats.Stats, events: int, wall: float,
                limit: int) -> None:
    print(f"{label}: {events} events in "
          f"{wall * 1e3:.1f} ms ({events / wall:,.0f} events/s)\n")
    out = io.StringIO()
    stats.stream = out
    stats.sort_stats("cumulative").print_stats(limit)
    print(out.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the flood hot path (top cumulative lines)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the top rows as a JSON artifact")
    parser.add_argument("-n", type=int, default=PROFILE_N,
                        help=f"bridge count to profile (default {PROFILE_N})")
    parser.add_argument("--top", type=int, default=TOP,
                        help=f"rows to print/export (default {TOP})")
    parser.add_argument("--shards", type=int, default=1,
                        help="profile the sharded runtime with N worker "
                             "threads instead of the bare engine "
                             "(default 1 = direct Simulator)")
    parser.add_argument("--endpoints", type=int, default=0,
                        help="profile the population workload instead: "
                             "this many flyweight endpoints behind the "
                             "grid's access ports (0 = plain flood)")
    args = parser.parse_args(argv)

    if args.endpoints > 0:
        stats, events, wall = profile_population(args.n, args.endpoints)
        label = f"population workload (endpoints={args.endpoints})"
    elif args.shards > 1:
        stats, events, wall = profile_flood_sharded(args.n, args.shards)
        label = f"sharded flood (shards={args.shards})"
    else:
        stats, events, wall = profile_flood(args.n)
        label = "flood workload"
    print_table(f"{label} at n={args.n}", stats, events, wall, args.top)
    unicast = None
    if args.endpoints <= 0 and args.shards <= 1:
        unicast = profile_unicast_train()
        print_table("warm unicast train over an 8-bridge line",
                    *unicast, args.top)

    if args.json:
        payload = {
            "bridges": args.n,
            "shards": args.shards,
            "events": events,
            "wall_seconds": round(wall, 6),
            "events_per_sec": round(events / wall),
            "top": top_rows(stats, args.top),
        }
        if unicast is not None:
            payload["unicast_train"] = {
                "events": unicast[1],
                "wall_seconds": round(unicast[2], 6),
                "top": top_rows(unicast[0], args.top),
            }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
