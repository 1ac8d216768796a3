"""EXP-A1 bench: ARP-Proxy broadcast suppression.

Paper claim (§2.2): "ARP broadcast traffic can be reduced dramatically
by implementing ARP Proxy function inside the switches" (citing
EtherProxy).

Expected shape: with the proxy on, fabric ARP frames drop by a factor
that grows with the number of repeat resolutions; zero resolution
failures either way.
"""

from conftest import banner, run_once

from repro.experiments import registry
from repro.experiments.broadcast import suppression
from repro.metrics.report import format_rows, format_table

proxy = registry.get("proxy")


def test_proxy_suppression(benchmark):
    result = run_once(benchmark, lambda: proxy.execute(rows=3, cols=3,
                                                       rounds=3))
    banner("EXP-A1 — ARP broadcast suppression (proxy off vs on)")
    print(format_rows(result, proxy.title))
    reduction = suppression(result)
    print(f"\nsuppression factor: {reduction:.2f}x")
    benchmark.extra_info["suppression_factor"] = round(reduction, 2)
    assert reduction > 1.5
    for row in result:
        assert row["resolution_failures"] == 0


def test_proxy_suppression_grows_with_rounds(benchmark):
    def sweep():
        out = []
        for rounds in (1, 3, 5):
            result = proxy.execute(rows=2, cols=2, rounds=rounds)
            out.append((rounds, suppression(result)))
        return out

    rows = run_once(benchmark, sweep)
    banner("EXP-A1 sweep — suppression factor vs repeat rounds")
    print(format_table(["rounds", "suppression"],
                       [[r, f"{s:.2f}x"] for r, s in rows]))
    factors = [s for _r, s in rows]
    assert factors[-1] > factors[0]  # more repeats, more suppression
