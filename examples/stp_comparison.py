#!/usr/bin/env python3
"""The paper's §3.1 demo: ARP-Path vs STP latency, side by side.

Runs the same physical wiring under ARP-Path, 802.1D STP and the
link-state SPB baseline, pings A<->B under each, and prints the latency
table the demo GUI graphed — plus each protocol's chosen path, so you
can see *why* the numbers differ.

Run:  python examples/stp_comparison.py
"""

from repro.experiments import registry


def main() -> None:
    # The `repro fig2` defaults: arppath, stp and spb, STP at 10x
    # scaled timers (its path choice is identical at IEEE timers).
    result = registry.get("fig2").execute(probes=20)
    print(result.table())
    print()
    speedup = result.speedup()
    if speedup is not None:
        print(f"ARP-Path RTT advantage over STP: {speedup:.1f}x")
    print("\nWhy: 802.1D path costs depend on bandwidth only, so STP's "
          "tree happily\nuses the 1-hop, 500us cross cable; the ARP race "
          "actually *measures* each\npath and keeps the 2-hop, 20us one.")


if __name__ == "__main__":
    main()
