"""EXP-A3 bench: ablations on the ARP-Path design knobs.

The ARP-Path design decisions (README.md, "Bridge families"), each
swept:

* lock timeout vs the race duration (below it: re-lock churn, losses),
* repair buffer on/off (off: the outage's frames are simply lost),
* hello-based vs static vs absent port classification (absent: repair
  cannot locate the source edge and never starts).
"""

from conftest import banner, run_once

from repro.experiments import ablations


def test_lock_timeout_sweep(benchmark):
    rows = run_once(benchmark,
                    lambda: ablations.sweep_lock_timeout(
                        timeouts=[0.0002, 0.002, 0.8, 5.0]))
    banner("EXP-A3a — lock timeout sweep (race lasts ~500us here)")
    from repro.metrics.report import format_table
    print(format_table(
        ["lock_timeout_s", "rtt_mean_us", "losses", "relocks", "filtered"],
        [[r.lock_timeout,
          r.rtt_mean * 1e6 if r.rtt_mean is not None else None,
          r.losses, r.relocks, r.discovery_filtered] for r in rows]))
    below, *above = rows
    assert below.relocks > 0  # sub-race timeout: the guard fails
    assert all(r.relocks == 0 for r in above)
    assert all(r.losses == 0 for r in above)


def test_repair_buffer_sweep(benchmark):
    rows = run_once(benchmark,
                    lambda: ablations.sweep_repair_buffer(sizes=[0, 4, 32]))
    banner("EXP-A3b — repair buffer size")
    from repro.metrics.report import format_table
    print(format_table(
        ["buffer", "outage_ms", "chunks_lost", "buffered", "drops"],
        [[r.buffer_size, r.outage_ms, r.chunks_lost, r.buffered,
          r.buffer_drops] for r in rows]))
    without = rows[0]
    with_buffer = rows[-1]
    assert without.chunks_lost > with_buffer.chunks_lost


def test_port_classification_sweep(benchmark):
    rows = run_once(benchmark, ablations.sweep_hello)
    banner("EXP-A3c — port classification: hellos / static / none")
    from repro.metrics.report import format_table
    print(format_table(
        ["hellos", "static_roles", "repaired", "outage_ms"],
        [[r.hello_enabled, r.static_roles, r.repaired, r.outage_ms]
         for r in rows]))
    dynamic, static, none = rows
    assert dynamic.repaired and static.repaired
    assert not none.repaired
