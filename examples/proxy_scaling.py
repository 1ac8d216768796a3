#!/usr/bin/env python3
"""ARP-Proxy broadcast suppression (paper §2.2 "Scalability").

All-pairs ARP traffic on a 3x3 grid fabric, with the in-bridge ARP
proxy off and then on. With the proxy enabled, only the first
resolution of each address floods the fabric; every later request is
answered at the ingress bridge, exactly the EtherProxy idea the paper
cites.

Run:  python examples/proxy_scaling.py
"""

from repro.experiments import registry


def main() -> None:
    result = registry.get("proxy").execute(rows=3, cols=3, rounds=3)
    print(result.table())
    reduction = result.reduction()
    if reduction is not None:
        print(f"\nARP frames on fabric links reduced {reduction:.1f}x "
              "by the proxy,\nwith zero failed resolutions.")


if __name__ == "__main__":
    main()
