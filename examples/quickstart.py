#!/usr/bin/env python3
"""Quickstart: build the paper's demo network and watch ARP-Path work.

Builds the 4-bridge NetFPGA demo topology (ring + slow cross link),
pings host A -> host B, and shows:

* the RTT of the first ping (includes the ARP race) and of a warm ping,
* the path the race selected (avoiding the 500 us cross cable),
* each bridge's locked address table.

Run:  python examples/quickstart.py
"""

from repro import Simulator, arppath, netfpga_demo
from repro.metrics.paths import PathObserver
from repro.metrics.report import format_table, us


def main() -> None:
    sim = Simulator(seed=1)
    net = netfpga_demo(sim, arppath())
    print("Topology: NF1-NF2-NF3-NF4 ring (10us links) + NF1-NF3 cross "
          "(500us), host A on NF1, host B on NF3\n")

    net.run(5.0)  # hellos classify ports

    a, b = net.host("A"), net.host("B")
    observer = PathObserver(net, "B")
    rtts = []
    a.ping(b.ip, seq=1, on_reply=lambda seq, rtt: rtts.append(rtt))
    net.run(1.0)
    a.ping(b.ip, seq=2, on_reply=lambda seq, rtt: rtts.append(rtt))
    net.run(1.0)

    print(f"first ping (with ARP race): {us(rtts[0])}")
    print(f"warm ping  (path learnt):   {us(rtts[1])}")
    path = observer.last_bridge_path()
    print(f"selected path: A -> {' -> '.join(path)} -> B")
    print("(the 1-hop NF1->NF3 cross was rejected: 500us beats nothing)\n")

    rows = []
    for name in sorted(net.bridges):
        bridge = net.bridge(name)
        for entry in bridge.table.entries(sim.now):
            who = "host A" if entry.mac == a.mac else "host B"
            rows.append([name, who, entry.port.name, entry.state.value])
    print(format_table(["bridge", "address of", "port", "state"], rows,
                       title="Locked address tables"))


if __name__ == "__main__":
    main()
