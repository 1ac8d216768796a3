#!/usr/bin/env python3
"""ARP-Proxy broadcast suppression (paper §2.2 "Scalability").

All-pairs ARP traffic on a 3x3 grid fabric, with the in-bridge ARP
proxy off and then on. With the proxy enabled, only the first
resolution of each address floods the fabric; every later request is
answered at the ingress bridge, exactly the EtherProxy idea the paper
cites.

Run:  python examples/proxy_scaling.py
"""

from repro.experiments import broadcast, registry
from repro.metrics.report import format_rows


def main() -> None:
    scenario = registry.get("proxy")
    records = scenario.execute(rows=3, cols=3, rounds=3)
    print(format_rows(records, scenario.title))
    reduction = broadcast.suppression(records)
    if reduction is not None:
        print(f"\nARP frames on fabric links reduced {reduction:.1f}x "
              "by the proxy,\nwith zero failed resolutions.")


if __name__ == "__main__":
    main()
