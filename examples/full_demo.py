#!/usr/bin/env python3
"""The complete SIGCOMM'11 demo, end to end, in one script.

Part 1 (paper §3.1): the same 4-bridge wiring runs ARP-Path and then
STP; ping trains A<->B show the latency difference and the chosen
paths.

Part 2 (paper §3.2): a video stream runs A->B over ARP-Path bridges
while we pull the cable the stream is using, twice; the arrival
timeline shows two barely-visible hiccups where Path Repair rerouted.

Run:  python examples/full_demo.py
"""

from repro import Simulator, arppath, netfpga_demo, stp_scaled
from repro.metrics.chart import sparkline, timeseries
from repro.metrics.paths import PathObserver
from repro.metrics.report import format_table, us
from repro.traffic.ping import PingSeries
from repro.traffic.video import stream_between


def part1_latency() -> None:
    print("=" * 72)
    print("PART 1 — ARP-Path vs STP latency (paper §3.1)")
    print("=" * 72)
    rows = []
    charts = []
    for label, factory, warmup in [("arppath", arppath(), 5.0),
                                   ("stp (x0.1 timers)", stp_scaled(0.1),
                                    6.0)]:
        sim = Simulator(seed=3)
        net = netfpga_demo(sim, factory)
        net.run(warmup)
        observer = PathObserver(net, "B")
        series = PingSeries(net.host("A"), net.host("B").ip, count=15,
                            interval=0.05)
        series.start()
        net.run(2.0)
        series.finalize()
        path = observer.last_bridge_path() or ()
        rtts = series.rtts
        rows.append([label, "->".join(path),
                     us(sum(rtts) / len(rtts)), series.losses])
        charts.append((label, rtts))
    print(format_table(["protocol", "path", "mean RTT", "losses"], rows))
    print()
    for label, rtts in charts:
        print(f"  {label:20s} RTT series: "
              f"{sparkline([r * 1e6 for r in rtts], width=30)} "
              f"({us(min(rtts))}..{us(max(rtts))})")
    print()


def part2_repair() -> None:
    print("=" * 72)
    print("PART 2 — video stream vs cable pulls (paper §3.2)")
    print("=" * 72)
    sim = Simulator(seed=3)
    net = netfpga_demo(sim, arppath())
    net.run(5.0)
    observer = PathObserver(net, "B")
    source, sink = stream_between(net.host("A"), net.host("B"), fps=25.0)
    source.start()
    net.run(2.0)

    pulls = []

    def pull_cable():
        bridges = observer.last_bridge_path() or ()
        path = ("A",) + bridges + ("B",)
        for left, right in zip(path, path[1:]):
            if left in net.hosts or right in net.hosts:
                continue
            wire = net.link_between(left, right)
            if wire.up:
                wire.take_down()
                pulls.append((sim.now, wire.name))
                return

    start = sim.now + 1.0
    sim.at(start, pull_cable)
    sim.at(start + 2.0, pull_cable)
    net.run(6.0)
    source.stop()
    net.run(0.5)

    print(f"\nstream: {sink.received}/{source.sent} chunks delivered "
          f"({sink.received / source.sent:.1%}), "
          f"{sink.duplicates} duplicates, {sink.reordered} reordered")
    for when, link in pulls:
        print(f"  cable pulled at t={when:.2f}s: {link}")

    # Inter-arrival timeline: repair hiccups appear as spikes.
    t0 = sink.arrivals[0]
    points = [(t - t0, (b - a) * 1e3) for t, a, b in
              zip(sink.arrivals[1:], sink.arrivals, sink.arrivals[1:])]
    print("\nchunk inter-arrival time (ms) over the run "
          "(spikes = repairs):")
    print(timeseries(points, width=64, height=8))

    repair_times = [t for bridge in net.bridges.values()
                    if hasattr(bridge, "repair")
                    for t in bridge.repair.repair_times]
    if repair_times:
        rendered = ", ".join(f"{t * 1e6:.0f}us" for t in repair_times)
        print(f"\nbridge-measured repair times: {rendered}")


def main() -> None:
    part1_latency()
    part2_repair()


if __name__ == "__main__":
    main()
