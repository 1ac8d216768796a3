"""EXP-F2 bench: regenerate the Fig. 2 latency comparison.

Paper claim (§3.1): "ARP-Path chooses lower latency paths as opposed to
STP that builds a routing tree rooted at an arbitrary switch."

Expected shape: ARP-Path takes a low-latency ring path (~50 us RTT);
STP and SPB take the 1-hop high-latency cross (~1 ms RTT); speedup is
roughly the cross/ring latency ratio (~20x with default parameters).
"""

from conftest import banner, run_once

from repro.experiments import registry
from repro.experiments.fig2_latency import speedup
from repro.metrics.report import format_rows, format_table

fig2 = registry.get("fig2")


def test_fig2_latency_comparison(benchmark):
    # The registry defaults are the paper's comparison: arppath vs
    # stp(x0.1) vs spb at 20 probes.
    result = run_once(benchmark, lambda: fig2.execute(probes=20))
    banner("Fig. 2 — ARP-Path vs STP vs SPB latency (demo topology)")
    print(format_rows(result, fig2.title))
    factor = speedup(result)
    print(f"\nARP-Path speedup over STP: {factor:.1f}x")
    benchmark.extra_info["speedup_vs_stp"] = round(factor, 2)
    assert factor > 5


def test_fig2_sensitivity_to_cross_latency(benchmark):
    """Sweep the cross-cable latency: the ARP-Path advantage tracks it."""

    def sweep():
        rows = []
        for cross_us in (50.0, 200.0, 500.0, 2000.0):
            result = fig2.execute(probes=10, cross_latency_us=cross_us,
                                  protocols=["arppath", "stp"])
            rows.append((cross_us * 1e-6, speedup(result)))
        return rows

    rows = run_once(benchmark, sweep)
    banner("Fig. 2 sweep — speedup vs cross-link latency")
    print(format_table(["cross_latency_us", "arppath_speedup"],
                       [[c * 1e6, f"{s:.1f}x"] for c, s in rows]))
    speedups = [s for _c, s in rows]
    assert speedups == sorted(speedups)  # monotone in cross latency
