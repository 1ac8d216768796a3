#!/usr/bin/env python3
"""Load distribution over a leaf/spine fabric (paper §2.2).

56 concurrent flows cross a 4-leaf / 2-spine fabric. Under ARP-Path,
each pair's ARP race resolves against the queues the other flows are
building, so flows spread across both spines; STP funnels everything
through its single tree.

Run:  python examples/datacenter_loadbalance.py
"""

from repro.experiments import loadbalance, registry
from repro.metrics.report import format_rows, format_table


def main() -> None:
    scenario = registry.get("loadbalance")
    protocols = registry.protocol_specs(["arppath", "stp"], stp_scale=0.1)
    print(format_rows(scenario.execute(protocols=["arppath", "stp"],
                                       stp_scale=0.1), scenario.title))
    print()
    # The records hold one line per protocol; the per-link bytes come
    # from the per-cell function, at the scenario's defaults.
    for protocol in protocols:
        row = loadbalance.run_protocol(protocol)
        rows = [[link, f"{load / 1000:.1f}"]
                for link, load in sorted(row.report.per_link.items())]
        print(format_table(["fabric link", "kBytes carried"], rows,
                           title=f"per-link load — {row.protocol}"))
        print()


if __name__ == "__main__":
    main()
