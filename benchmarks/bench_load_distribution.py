"""EXP-A2 bench: load distribution and path diversity.

Paper claim (§2.2): "Load distribution and path diversity".

Expected shape: on a leaf/spine fabric ARP-Path uses every link with a
low coefficient of variation; STP and SPB funnel all flows through one
spine (half the links idle, cv = 1 with two spines).
"""

from conftest import banner, run_once

from repro.experiments import loadbalance, registry
from repro.experiments.common import spec
from repro.metrics.report import format_rows, format_table


def test_load_distribution(benchmark):
    # Note packets=30 (the module default the pre-registry bench used),
    # not the CLI default of 50.
    scenario = registry.get("loadbalance")
    result = run_once(benchmark, lambda: scenario.execute(
        packets=30, protocols=["arppath", "stp", "spb"], stp_scale=0.1))
    banner("EXP-A2 — per-link load over a 4-leaf/2-spine fabric")
    print(format_rows(result, scenario.title))
    arp = next(r for r in result if r["protocol"] == "arppath")
    stp_row = next(r for r in result if r["protocol"].startswith("stp"))
    benchmark.extra_info["arppath_cv"] = round(arp["load_cv"], 3)
    benchmark.extra_info["stp_cv"] = round(stp_row["load_cv"], 3)
    assert arp["links_used"] == arp["links_total"]
    assert arp["load_cv"] < stp_row["load_cv"]
    assert all(r["delivery_rate"] == 1.0 for r in result)


def test_load_distribution_idle_vs_loaded_resolution(benchmark):
    """Ablation: resolving paths on an idle fabric loses the diversity
    that queue-steered races provide."""

    def both():
        loaded = loadbalance.run_protocol(spec("arppath"),
                                          resolve_under_load=True)
        idle = loadbalance.run_protocol(spec("arppath"),
                                        resolve_under_load=False)
        return loaded, idle

    loaded, idle = run_once(benchmark, both)
    banner("EXP-A2 ablation — resolution under load vs on idle fabric")
    print(format_table(
        ["resolution", "links_used", "cv", "max/mean"],
        [["under load", loaded.report.used_links, loaded.report.cv,
          loaded.report.max_over_mean],
         ["idle fabric", idle.report.used_links, idle.report.cv,
          idle.report.max_over_mean]]))
    assert loaded.report.used_links >= idle.report.used_links
