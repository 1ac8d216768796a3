#!/usr/bin/env python3
"""The paper's §3.2 demo: video streaming across successive failures.

Host A streams 25 fps video to host B over the four demo bridges. We
pull the cable the stream is using — twice — and print a timeline of
what Path Repair did about it, plus the equivalent numbers for 802.1D
STP (timers scaled 10x faster; multiply its outages by 10 for IEEE
defaults).

Run:  python examples/video_failover.py
"""

from repro import Simulator, arppath, netfpga_demo, stp_scaled
from repro.core.bridge import ArpPathBridge
from repro.metrics.convergence import recoveries_for_failures
from repro.metrics.paths import PathObserver
from repro.metrics.report import format_table, ms

FPS = 25.0
FAILURES = 2


def run_protocol(label, factory, warmup):
    from repro.traffic.video import stream_between

    sim = Simulator(seed=7)
    net = netfpga_demo(sim, factory)
    net.run(warmup)

    observer = PathObserver(net, "B")
    source, sink = stream_between(net.host("A"), net.host("B"), fps=FPS)
    source.start()
    net.run(2.0)

    fail_times, failed_links = [], []

    def cut_active_link():
        fail_times.append(sim.now)
        bridges = observer.last_bridge_path()
        path = ("A",) + (bridges or ()) + ("B",)
        for left, right in zip(path, path[1:]):
            if left in net.hosts or right in net.hosts:
                continue
            wire = net.link_between(left, right)
            if wire.up:
                wire.take_down()
                failed_links.append(wire.name)
                return
        failed_links.append("-")

    spacing = 2.0 if label == "arppath" else 6.0
    start = sim.now + 1.0
    for index in range(FAILURES):
        sim.at(start + index * spacing, cut_active_link)
    net.run(start + FAILURES * spacing + 2.0 - sim.now)
    source.stop()
    net.run(1.0)

    recoveries = recoveries_for_failures(sink.arrivals, fail_times,
                                         send_interval=1.0 / FPS)
    repair_times = [t for bridge in net.bridges.values()
                    if isinstance(bridge, ArpPathBridge)
                    for t in bridge.repair.repair_times]
    return {
        "label": label,
        "failed_links": failed_links,
        "recoveries": recoveries,
        "sent": source.sent,
        "received": sink.received,
        "stalls": sink.interruptions(),
        "repair_times": repair_times,
    }


def main() -> None:
    results = [
        run_protocol("arppath", arppath(), warmup=5.0),
        run_protocol("stp(x0.1)", stp_scaled(0.1), warmup=6.0),
    ]
    rows = []
    for result in results:
        for index, (link, recovery) in enumerate(
                zip(result["failed_links"], result["recoveries"]), 1):
            rows.append([
                result["label"], index, link,
                ms(recovery.outage) if recovery else "never",
                recovery.packets_lost if recovery else "-",
            ])
    print(format_table(
        ["protocol", "failure#", "link cut", "stream outage",
         "frames lost"], rows,
        title="Video stream vs successive link failures (paper Fig. 3)"))
    print()
    for result in results:
        delivered = result["received"] / result["sent"]
        print(f"{result['label']}: {result['received']}/{result['sent']} "
              f"chunks delivered ({delivered:.1%}), "
              f"{len(result['stalls'])} playback stalls")
        if result["repair_times"]:
            times = ", ".join(f"{t * 1e6:.0f}us"
                              for t in result["repair_times"])
            print(f"  bridge-measured repair times: {times}")
    print("\n(STP numbers are at 10x-scaled timers; multiply outages by "
          "10 for IEEE defaults.)")


if __name__ == "__main__":
    main()
