"""Profile the dataplane hot path so perf PRs are data-driven.

Runs the n=100 flood workload from :mod:`bench_scale` (grid warm-up +
bulk gratuitous-ARP race) under :mod:`cProfile` and prints the top
cumulative-time lines — the exact workload the scale bench guards, so
a line that climbs this table is a line that will move
``BENCH_scale.json``.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py            # table
    PYTHONPATH=src python benchmarks/profile_hotpath.py --json out.json

The plain invocation (no ``--endpoints``) also profiles
one warm **unicast train** — a 2 000-packet flow over an 8-bridge
ARP-Path line whose path is already LEARNT — so ``on_unicast`` /
``learn`` / ``get`` show their cumulative shares next to the flood's.

Beside each cProfile table come the two things cProfile cannot see,
for the same run: what the **garbage collector** did (collections and
seconds per generation, from ``gc.callbacks``) and a **census** of the
delivery events link directions still hold. An object the hot path
keeps past its use costs nothing in any profiled function — it
survives generation 0 and the collector pays for it later — so a
retention bug shows here as collector seconds and as *fired* events in
the census (the invariant is zero: ``netsim.link``'s in-flight FIFO),
and nowhere in the top-N.

``--json`` writes the same top-N rows as a JSON artifact (CI uploads it
from the bench-guard job) with per-function ``ncalls`` / ``tottime`` /
``cumtime``, plus the workload's event count, wall time, collector
activity and census, so consecutive CI runs can be diffed mechanically.
"""

import argparse
import cProfile
import gc
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

#: Bridge count profiled; big enough that the dataplane dominates the
#: topology build, small enough for a sub-second CI step.
PROFILE_N = 100
#: Rows printed / exported.
TOP = 20


class CollectorWatch:
    """Collections and seconds per generation while the block runs.

    ``gc.callbacks`` fire with the interpreter lock held throughout,
    so one start stamp serves every pass.
    """

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def _on_gc(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections[info["generation"]] += 1
            self.seconds[info["generation"]] += (time.perf_counter()
                                                 - self._started)

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._on_gc)


def held_deliveries():
    """Census of ``_Direction.pending`` per engine: ``{id(sim):
    [directions, in_flight, fired]}`` over every direction alive.

    Found through the collector, not through a network handle, so it
    works on workloads that only hand back a simulator.
    """
    from repro.netsim.link import _Direction

    census = {}
    for obj in gc.get_objects():
        if type(obj) is _Direction:
            cell = census.setdefault(id(obj.to_port.node.sim), [0, 0, 0])
            cell[0] += 1
            for event in obj.pending:
                cell[2 if event._sim is None else 1] += 1
    return census


def observe(workload):
    """Run ``workload()`` timed, profiled and with the collector watched.

    Returns ``(result, run)`` where *run* holds ``stats``, ``wall``,
    ``gc`` and ``held``.
    """
    gc.collect()  # earlier runs' cyclic garbage is not this run's
    profiler = cProfile.Profile()
    start = time.perf_counter()
    with CollectorWatch() as watch:
        profiler.enable()
        try:
            result = workload()
        finally:
            profiler.disable()
    wall = time.perf_counter() - start
    census = held_deliveries()  # *result* keeps the network alive
    held = [sum(column) for column in zip(*census.values())] or [0, 0, 0]
    return result, {
        "stats": pstats.Stats(profiler),
        "wall": wall,
        "gc": {"collections": watch.collections,
               "seconds": [round(value, 6) for value in watch.seconds],
               # A floor: cProfile inflates the Python side of the
               # wall, not the collector's passes.
               "share_of_wall": round(sum(watch.seconds) / wall, 4)},
        "held": dict(zip(("directions", "in_flight", "fired"), held)),
    }


def profile_flood(n: int = PROFILE_N):
    """Profile one flood workload; returns the :func:`observe` run."""
    bench_scale.scale_flood(n)  # warm-up: imports, allocator, caches
    sim, run = observe(lambda: bench_scale.scale_flood(n))
    run["events"] = sim.events_processed
    return run


def profile_unicast_train(bridges: int = 8, packets: int = 2000):
    """Profile a warm unicast flow over a line (:func:`observe` run).

    The table hit path and nothing else: every frame learns its source
    and looks its destination up once per hop (the workload
    ``tests/test_hotpath_cost.py`` counts calls on).
    """
    from repro.netsim.engine import Simulator
    from repro.topology import line
    from repro.topology.factories import arppath
    from repro.traffic.matrix import TrafficMatrix

    sim = Simulator(seed=1)
    net = line(sim, arppath(), bridges)
    net.run(5.0)
    matrix = TrafficMatrix(net)
    matrix.add_flow("H0", "H1", packets=50 + packets, interval=1e-4)
    matrix.start()
    net.run(0.005)  # ARP race + the first ~50 packets: path LEARNT
    before = sim.events_processed
    _, run = observe(lambda: sim.run_for(packets * 1e-4))
    run["events"] = sim.events_processed - before
    return run


def profile_population(n: int = PROFILE_N, endpoints: int = 10_000):
    """Profile the heavy-tailed population workload (bench_scale)."""
    bench_scale.population_flood(n, endpoints)  # warm-up
    (sim, _net, _sampler), run = observe(
        lambda: bench_scale.population_flood(n, endpoints))
    run["events"] = sim.events_processed
    return run


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


def print_table(label: str, run: dict, limit: int) -> None:
    events, wall = run["events"], run["wall"]
    print(f"{label}: {events} events in "
          f"{wall * 1e3:.1f} ms ({events / wall:,.0f} events/s)\n")
    out = io.StringIO()
    run["stats"].stream = out
    run["stats"].sort_stats("cumulative").print_stats(limit)
    print(out.getvalue())
    collector, held = run["gc"], run["held"]
    passes = ", ".join(
        f"gen{generation} x{count} {seconds * 1e3:.1f} ms"
        for generation, (count, seconds) in enumerate(
            zip(collector["collections"], collector["seconds"])))
    print(f"collector: {passes} = {collector['share_of_wall']:.1%} of the "
          f"profiled wall (a floor: cProfile slows only the Python side)")
    print(f"link directions: {held['directions']}, holding "
          f"{held['in_flight']} deliveries in flight and {held['fired']} "
          f"already fired\n")


def json_block(run: dict, limit: int) -> dict:
    return {
        "events": run["events"],
        "wall_seconds": round(run["wall"], 6),
        "top": top_rows(run["stats"], limit),
        "gc": run["gc"],
        "held_deliveries": run["held"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the flood hot path (top cumulative lines)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the top rows as a JSON artifact")
    parser.add_argument("-n", type=int, default=PROFILE_N,
                        help=f"bridge count to profile (default {PROFILE_N})")
    parser.add_argument("--top", type=int, default=TOP,
                        help=f"rows to print/export (default {TOP})")
    parser.add_argument("--endpoints", type=int, default=0,
                        help="profile the population workload instead: "
                             "this many flyweight endpoints behind the "
                             "grid's access ports (0 = plain flood)")
    args = parser.parse_args(argv)

    if args.endpoints > 0:
        run = profile_population(args.n, args.endpoints)
        label = f"population workload (endpoints={args.endpoints})"
    else:
        run = profile_flood(args.n)
        label = "flood workload"
    print_table(f"{label} at n={args.n}", run, args.top)
    unicast = None
    if args.endpoints <= 0:
        unicast = profile_unicast_train()
        print_table("warm unicast train over an 8-bridge line", unicast,
                    args.top)

    if args.json:
        payload = {
            "bridges": args.n,
            "events_per_sec": round(run["events"] / run["wall"]),
            **json_block(run, args.top),
        }
        if unicast is not None:
            payload["unicast_train"] = json_block(unicast, args.top)
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
