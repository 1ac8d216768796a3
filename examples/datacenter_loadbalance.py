#!/usr/bin/env python3
"""Load distribution over a leaf/spine fabric (paper §2.2).

56 concurrent flows cross a 4-leaf / 2-spine fabric. Under ARP-Path,
each pair's ARP race resolves against the queues the other flows are
building, so flows spread across both spines; STP funnels everything
through its single tree.

Run:  python examples/datacenter_loadbalance.py
"""

from repro.experiments import registry
from repro.metrics.report import format_table


def main() -> None:
    result = registry.get("loadbalance").execute(
        protocols=["arppath", "stp"], stp_scale=0.1)
    print(result.table())
    print()
    for row in result.rows:
        rows = [[link, f"{load / 1000:.1f}"]
                for link, load in sorted(row.report.per_link.items())]
        print(format_table(["fabric link", "kBytes carried"], rows,
                           title=f"per-link load — {row.protocol}"))
        print()


if __name__ == "__main__":
    main()
