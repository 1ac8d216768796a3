"""EXP-P2 bench: loop freedom and no-blocked-links.

Paper claims (abstract, §2.2): "ARP-Path exhibits loop-freedom, does
not block links ... neither needs a spanning tree protocol to prevent
loops nor a link state protocol".

Expected shape: zero duplicate deliveries and no storms on loopy
topologies for ARP-Path (and the control-plane baselines); ARP-Path
leaves no link unused while STP's blocked links carry nothing. The
plain learning switch shows the storm ARP-Path prevents.
"""

from conftest import banner, run_once

from repro.experiments import registry
from repro.metrics.report import format_rows, format_table

loopfree = registry.get("loopfree")


def test_loopfree_and_link_usage(benchmark):
    result = run_once(benchmark, lambda: loopfree.execute(
        topologies=["grid", "ring"],
        protocols=["arppath", "stp", "spb"], stp_scale=0.1))
    banner("EXP-P2 — loop freedom and link utilisation")
    print(format_rows(result, loopfree.title))
    for row in result:
        assert row["duplicate_deliveries"] == 0
        assert not row["storm"]
    arp_ring = next(r for r in result
                    if r["protocol"] == "arppath" and r["topology"] == "ring")
    stp_ring = next(r for r in result if r["protocol"].startswith("stp")
                    and r["topology"] == "ring")
    assert arp_ring["links_used"] == arp_ring["links_total"]
    assert stp_ring["links_used"] < stp_ring["links_total"]


def test_learning_switch_storms_for_contrast(benchmark):
    """The failure mode the protocol exists to prevent, quantified."""
    from repro.netsim.engine import Simulator
    from repro.topology import learning, ring

    def storm():
        sim = Simulator(seed=0)
        net = ring(sim, learning(), 4)
        net.start()
        net.host("H0").gratuitous_arp()
        sim.run(until=0.05, max_events=100_000)
        return sim.tracer.frames_sent

    sent = run_once(benchmark, storm)
    banner("EXP-P2 contrast — plain learning switches on the same ring")
    print(format_table(
        ["protocol", "frames from ONE broadcast (50ms, capped)"],
        [["learning switch (no control plane)", sent]]))
    assert sent > 5_000  # unbounded storm, capped only by the event limit
