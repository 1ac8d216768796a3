"""EXP-S1 bench: per-bridge state vs hosts and traffic density.

Paper context (§2.2 "Scalability"): ARP-Path bridges hold one table
entry per active conversation endpoint, learnt on demand; a link-state
bridge stores the full topology plus every advertised host regardless
of who is talking.

Expected shape: ARP-Path state tracks the *traffic matrix* (sparse
traffic ⇒ small tables even with many hosts); SPB state tracks the
*network* (grows with hosts whether or not they talk).
"""

from conftest import banner, run_once

from repro.experiments import registry
from repro.metrics.report import format_rows

occupancy = registry.get("occupancy")


def test_state_scaling(benchmark):
    result = run_once(benchmark, lambda: occupancy.execute(
        host_counts=[1, 2, 4], sparse_pairs=4))
    banner("EXP-S1 — per-bridge state vs hosts (4-bridge ring)")
    print(format_rows(result, occupancy.title))
    arp_sparse = [r for r in result if r["protocol"] == "arppath (sparse)"]
    spb_rows = [r for r in result if r["protocol"] == "spb"]
    # Sparse traffic keeps ARP-Path tables small at any host count.
    if arp_sparse:
        biggest_sparse = max(r["peak_state"] for r in arp_sparse)
        assert biggest_sparse <= 2 * 4 + 2  # ~both endpoints of 4 pairs
    # SPB state grows with hosts even for identical traffic.
    assert spb_rows[-1]["peak_state"] > spb_rows[0]["peak_state"]
