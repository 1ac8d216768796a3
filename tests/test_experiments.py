"""Smoke tests for the experiment modules (small, fast variants).

Each test checks the experiment runs and its result has the *shape* the
paper reports — who wins and roughly by how much. Scenarios run through
the registry (``registry.get(name).execute``), the path the CLI, sweeps
and the serve daemon take, so the defaults are the CLI's. The full-size
runs live in benchmarks/.
"""

import pytest

from repro.experiments import (ablations, fig3_repair, loadbalance,
                               loopfree, registry)
from repro.experiments.common import spec
from repro.netsim.errors import InvariantError
from repro.netsim.tracer import Tracer


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.get("fig2").execute(
            probes=5, protocols=["arppath", "stp"])

    def test_both_protocols_measured(self, result):
        assert {row.protocol.split("(")[0] for row in result.rows} \
            == {"arppath", "stp"}

    def test_arppath_wins(self, result):
        by_name = {row.protocol.split("(")[0]: row for row in result.rows}
        assert by_name["arppath"].rtt.mean < by_name["stp"].rtt.mean

    def test_speedup_at_least_5x(self, result):
        assert result.speedup() > 5

    def test_arppath_path_avoids_cross(self, result):
        arp_row = next(r for r in result.rows if r.protocol == "arppath")
        assert arp_row.bridge_path in (("NF1", "NF2", "NF3"),
                                       ("NF1", "NF4", "NF3"))

    def test_stp_path_uses_cross(self, result):
        stp_row = next(r for r in result.rows
                       if r.protocol.startswith("stp"))
        assert stp_row.bridge_path == ("NF1", "NF3")

    def test_no_losses(self, result):
        assert all(row.losses == 0 for row in result.rows)

    def test_table_renders(self, result):
        table = result.table()
        assert "arppath" in table and "rtt_mean_us" in table


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.get("fig3").execute(failures=2)

    def test_all_failures_hit_a_link(self, result):
        for row in result.rows:
            assert all(o.link is not None for o in row.outcomes)

    def test_arppath_outage_sub_frame_interval(self, result):
        arp = next(r for r in result.rows if r.protocol == "arppath")
        for outcome in arp.outcomes:
            assert outcome.outage is not None
            assert outcome.outage < 0.1

    def test_arppath_no_chunk_loss(self, result):
        arp = next(r for r in result.rows if r.protocol == "arppath")
        assert arp.delivery_rate == 1.0

    def test_stp_outage_orders_slower(self, result):
        arp = next(r for r in result.rows if r.protocol == "arppath")
        stp_row = next(r for r in result.rows
                       if r.protocol.startswith("stp"))
        worst_arp = max(o.outage for o in arp.outcomes)
        worst_stp = max(o.outage for o in stp_row.outcomes)
        assert worst_stp / worst_arp > 100

    def test_repair_times_recorded(self, result):
        arp = next(r for r in result.rows if r.protocol == "arppath")
        assert len(arp.bridge_repair_times) == 2

    def test_table_renders(self, result):
        assert "outage_ms" in result.table()


class TestStretch:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.get("stretch").execute(
            bridges=7, hosts=3, seeds=[0], protocols=["arppath", "stp"],
            stp_scale=0.1)

    def test_arppath_is_optimal(self, result):
        arp = next(r for r in result.rows if r.protocol == "arppath")
        assert arp.optimal_fraction == 1.0

    def test_stp_is_worse(self, result):
        arp = next(r for r in result.rows if r.protocol == "arppath")
        stp_row = next(r for r in result.rows
                       if r.protocol.startswith("stp"))
        assert stp_row.summary().mean >= arp.summary().mean

    def test_table_renders(self, result):
        assert "stretch_mean" in result.table()


class TestLoopfree:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.get("loopfree").execute(
            topologies=["ring"], protocols=["arppath", "stp"],
            stp_scale=0.1)

    def test_no_duplicates_no_storm(self, result):
        for row in result.rows:
            assert row.duplicate_deliveries == 0
            assert not row.storm

    def test_arppath_uses_more_links_than_stp(self, result):
        arp = next(r for r in result.rows if r.protocol == "arppath")
        stp_row = next(r for r in result.rows
                       if r.protocol.startswith("stp"))
        assert arp.used_links >= stp_row.used_links
        assert stp_row.used_links < stp_row.total_links  # blocked links

    def test_arppath_uses_all_ring_links(self, result):
        arp = next(r for r in result.rows if r.protocol == "arppath")
        assert arp.used_links == arp.total_links


class TestBroadcastSuppression:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.get("proxy").execute(rows=2, cols=2, rounds=2)

    def test_proxy_reduces_arp_traffic(self, result):
        assert result.reduction() > 1.5

    def test_no_resolution_failures(self, result):
        for row in result.rows:
            assert row.resolution_failures == 0

    def test_proxy_answers_counted(self, result):
        on = next(r for r in result.rows if r.proxy)
        assert on.proxy_answers > 0


class TestLoadBalance:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.get("loadbalance").execute(
            pods=4, hosts_per_edge=1, packets=20,
            protocols=["arppath", "stp"], stp_scale=0.1)

    def test_everything_delivered(self, result):
        for row in result.rows:
            assert row.delivery_rate == 1.0

    def test_arppath_spreads_load(self, result):
        arp = next(r for r in result.rows if r.protocol == "arppath")
        stp_row = next(r for r in result.rows
                       if r.protocol.startswith("stp"))
        assert arp.report.used_links > stp_row.report.used_links
        assert arp.report.cv < stp_row.report.cv


class TestOccupancy:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.get("occupancy").execute(host_counts=[1, 2],
                                                 sparse_pairs=4)

    def test_arppath_state_tracks_traffic(self, result):
        sparse = [r for r in result.rows
                  if r.protocol == "arppath (sparse)"]
        assert len(sparse) >= 2
        # Sparse traffic: table size stays flat as hosts double.
        assert sparse[-1].peak_entries_per_bridge \
            <= sparse[0].peak_entries_per_bridge + 2

    def test_spb_state_tracks_network(self, result):
        spb_rows = [r for r in result.rows if r.protocol == "spb"]
        assert spb_rows[-1].peak_entries_per_bridge \
            > spb_rows[0].peak_entries_per_bridge

    def test_table_renders(self, result):
        assert "peak_state/bridge" in result.table()


class TestAblations:
    def test_lock_timeout_sweep_shape(self, invariant_checks):
        # A lock shorter than the slowest race copy breaks loop-freedom.
        with pytest.raises(InvariantError, match="^loop: ") as caught:
            ablations.sweep_lock_timeout(timeouts=[0.0002])
        invariant_checks.expected(caught.value)
        invariant_checks.on = False
        rows = ablations.sweep_lock_timeout(timeouts=[0.0002, 0.8])
        short, normal = rows
        assert short.relocks > normal.relocks
        assert normal.losses == 0

    def test_repair_buffer_sweep_shape(self):
        rows = ablations.sweep_repair_buffer(sizes=[0, 32])
        without, with_buffer = rows
        assert without.chunks_lost > with_buffer.chunks_lost
        assert with_buffer.buffered > 0

    def test_hello_sweep_shape(self):
        rows = ablations.sweep_hello()
        dynamic, static, none = rows
        assert dynamic.repaired and static.repaired
        assert not none.repaired


def run_churn(**overrides):
    return registry.get("churn").execute(**overrides)


class TestChurn:
    @pytest.fixture(scope="class")
    def result(self):
        return run_churn(duration=4.0, protocols=["arppath"],
                         flap_rate=1.0, down_time=0.3)

    def test_flaps_were_injected(self, result):
        assert result.rows[0].flaps > 0

    def test_availability_is_a_fraction(self, result):
        avail = result.rows[0].availability
        assert 0.0 <= avail.availability <= 1.0
        assert avail.downtime >= 0.0

    def test_records_keys_are_stable(self, result):
        rows = result.records()
        assert rows, "churn produced no records"
        expected = {"protocol", "topology", "flap_rate", "down_time",
                    "duration", "crashes", "migrations",
                    "scripted_failures", "flaps", "availability",
                    "downtime", "outages", "unrepaired", "mttr",
                    "worst_outage", "chunks_sent", "chunks_received",
                    "delivery_rate", "duplicates", "repair_count",
                    "repair_latency_mean", "repair_latency_worst"}
        assert set(rows[0]) == expected

    def test_table_renders(self, result):
        table = result.table()
        assert "availability" in table and "arppath" in table

    def test_zero_flap_rate_is_fully_available(self):
        result = run_churn(duration=3.0, protocols=["arppath"],
                           flap_rate=0.0)
        row = result.rows[0]
        assert row.flaps == 0
        assert row.availability.availability == 1.0
        assert row.availability.downtime == 0.0

    def test_scripted_failures_reproduce_fig3_repair_latency(self):
        """The churn scenario with flap_rate=0 and fig3-style scripted
        cuts measures the same repair latencies as the static fig3
        experiment — the regression anchor tying the two together."""
        churn_result = run_churn(duration=4.0, protocols=["arppath"],
                                 flap_rate=0.0, scripted_failures=1)
        fig3_row = fig3_repair.run_protocol(spec("arppath"), failures=1,
                                            seed=0)
        churn_repairs = churn_result.rows[0].repair_times
        assert len(churn_repairs) == len(fig3_row.bridge_repair_times) == 1
        assert churn_repairs[0] == pytest.approx(
            fig3_row.bridge_repair_times[0], rel=0.05)

    def test_crash_restart_cycle_runs(self):
        result = run_churn(duration=4.0, protocols=["arppath"],
                           flap_rate=0.0, crashes=1, down_time=0.3)
        row = result.rows[0]
        assert row.crashes == 1
        assert 0.0 <= row.availability.availability <= 1.0

    def test_migration_cycle_runs(self):
        result = run_churn(duration=4.0, protocols=["arppath"],
                           flap_rate=0.0, migrations=1)
        assert result.rows[0].migrations == 1

    def test_all_four_families_on_loop_free_topology(self):
        result = run_churn(topology="line", duration=2.0,
                           protocols=["arppath", "stp", "spb", "learning"],
                           flap_rate=0.0)
        assert len(result.rows) == 4
        names = {row.protocol.split("(")[0] for row in result.rows}
        assert names == {"arppath", "stp", "spb", "learning"}
        for row in result.rows:
            assert row.availability.availability == 1.0

    def test_learning_on_loopy_topology_refused(self):
        with pytest.raises(ValueError, match="storms"):
            run_churn(topology="demo", protocols=["learning"])


class TestRetainedTraceScenarios:
    """loadbalance and loopfree are the two scenarios evaluated per link
    (they used to retain trace records): their rows are pinned in
    ``tests/goldens.json``, and the records they build cover the measured window only — none at all for
    loadbalance (port byte tallies), phase 1 only for loopfree (a
    listener counting broadcast deliveries, detached afterwards)."""

    @pytest.mark.unchecked
    @pytest.mark.parametrize("module,kwargs", [
        (loadbalance, {"pods": 4, "hosts_per_edge": 1, "packets": 5}),
        (loopfree, {"topology_name": "ring"}),
    ], ids=["loadbalance", "loopfree"])
    def test_retention_covers_the_measured_window_only(
            self, monkeypatch, module, kwargs):
        protocol = spec("stp", stp_scale=0.1)  # BPDUs during warm-up
        warmed, built = [], []

        def spying_build_and_warm(*args, **kw):
            net = build_and_warm(*args, **kw)
            # Warm-up traffic was counted, never materialised.
            assert net.sim.tracer.frames_sent > 0 and not built
            warmed.append(net)
            return net

        def spying_record(tracer, kind, time, *fields):
            built.append(time)
            record(tracer, kind, time, *fields)

        build_and_warm, record = module.build_and_warm, Tracer.record
        monkeypatch.setattr(module, "build_and_warm", spying_build_and_warm)
        monkeypatch.setattr(Tracer, "record", spying_record)
        module.run_protocol(protocol, seed=1, **kwargs)
        (net,) = warmed
        assert not net.sim.tracer._listeners    # no listener left behind
        if module is loadbalance:
            assert built == []
        else:
            phase_one = len(net.hosts) * 0.01 + 1.0
            assert built
            assert protocol.warmup <= min(built)
            assert max(built) <= protocol.warmup + phase_one
