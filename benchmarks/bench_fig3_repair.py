"""EXP-F3 bench: regenerate the Fig. 3 path-repair demonstration.

Paper claim (§3.2): Path Repair restores the stream after successive
link failures with "minimal effect on the streamed video".

Expected shape: ARP-Path outages are sub-frame-interval (sub-ms to
low-ms) with zero chunk loss; STP stalls for ~2 forward delays per
failure (3 s at 10x-scaled timers = 30 s at IEEE defaults) and loses a
frame-rate-proportional pile of chunks.
"""

from conftest import banner, run_once

from repro.experiments import fig3_repair, registry
from repro.metrics.report import format_rows, format_table
from repro.metrics.stats import summarize

fig3 = registry.get("fig3")


def test_fig3_repair_comparison(benchmark):
    result = run_once(benchmark, lambda: fig3.execute(failures=2))
    banner("Fig. 3 — stream disruption per failure (ARP-Path vs STP)")
    print(format_rows(result, fig3.title))
    arp = [r for r in result if r["protocol"] == "arppath"]
    stp_rows = [r for r in result if r["protocol"].startswith("stp")]
    print(f"\nARP-Path delivery: {arp[0]['delivery_rate']:.3f}, "
          f"STP delivery: {stp_rows[0]['delivery_rate']:.3f}")
    worst_arp = max(r["outage"] for r in arp)
    worst_stp = max(r["outage"] for r in stp_rows)
    benchmark.extra_info["arppath_worst_outage_ms"] = round(worst_arp * 1e3, 3)
    benchmark.extra_info["stp_worst_outage_ms"] = round(worst_stp * 1e3, 1)
    assert worst_stp / worst_arp > 100
    assert arp[0]["delivery_rate"] == 1.0


def test_fig3_repair_time_distribution(benchmark):
    """Many seeds: the distribution of ARP-Path repair times."""
    from repro.experiments.common import spec

    def sweep():
        times = []
        for seed in range(5):
            row = fig3_repair.run_protocol(spec("arppath"), failures=2,
                                           seed=seed)
            times.extend(row.bridge_repair_times)
        return times

    times = run_once(benchmark, sweep)
    banner("Fig. 3 — repair time distribution over 5 seeded runs")
    stats = summarize(times).scaled(1e6)
    print(format_table(
        ["n", "min_us", "median_us", "mean_us", "p95_us", "max_us"],
        [[stats.count, stats.min, stats.median, stats.mean, stats.p95,
          stats.max]]))
    assert stats.max < 10_000  # all repairs complete within 10 ms
