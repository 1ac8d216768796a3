"""EXP-P1 bench: minimum-latency path selection vs the Dijkstra oracle.

Paper claim (§2.2): "The selected path is the minimum latency path as
found by the ARP Request message."

Expected shape: ARP-Path stretch == 1.0 on every pair of every random
topology (idle network); STP's tree paths are substantially worse and
get worse with size.
"""

from conftest import banner, run_once

from repro.experiments import registry
from repro.metrics.report import format_rows, format_table

stretch = registry.get("stretch")


def test_stretch_random_graphs(benchmark):
    result = run_once(benchmark, lambda: stretch.execute(
        bridges=10, hosts=4, seeds=[0, 1, 2],
        protocols=["arppath", "stp"], stp_scale=0.1))
    banner("EXP-P1 — path stretch vs latency oracle (random graphs)")
    print(format_rows(result, stretch.title))
    arp_rows = [r for r in result if r["protocol"] == "arppath"]
    assert all(r["optimal_frac"] == 1.0 for r in arp_rows)


def test_stretch_scales_with_network_size(benchmark):
    def sweep():
        out = []
        for n in (6, 10, 14):
            result = stretch.execute(bridges=n, hosts=3, seeds=[0],
                                     protocols=["arppath", "stp"],
                                     stp_scale=0.1)
            row = {r["protocol"].split("(")[0]: r["stretch_mean"]
                   for r in result}
            out.append((n, row["arppath"], row["stp"]))
        return out

    rows = run_once(benchmark, sweep)
    banner("EXP-P1 sweep — mean stretch vs network size")
    print(format_table(["bridges", "arppath_stretch", "stp_stretch"],
                       [[n, a, s] for n, a, s in rows]))
    for _n, arppath_stretch, stp_stretch in rows:
        assert arppath_stretch <= stp_stretch
