"""Tests for the parallel sweep runner and seed aggregation."""

import pytest

from repro.experiments import registry, runner
from repro.metrics.stats import aggregate, aggregate_rows

#: A grid every test can afford: 2 seeds of the tiny proxy case.
TINY_AXES = {"rows": [2], "cols": [2], "rounds": [1]}


class TestGridExpansion:
    def test_scenario_times_seed_times_axis(self):
        cells = runner.expand_grid(["proxy"], seeds=[0, 1],
                                   axes={"rounds": [1, 2]})
        assert len(cells) == 4
        assert [c.index for c in cells] == [0, 1, 2, 3]
        seen = {(c.seed, dict(c.overrides)["rounds"]) for c in cells}
        assert seen == {(0, 1), (0, 2), (1, 1), (1, 2)}

    def test_list_param_axis_becomes_singleton(self):
        cells = runner.expand_grid(["stretch"], seeds=[0],
                                   axes={"protocols": ["arppath", "stp"]})
        values = sorted(dict(c.overrides)["protocols"] for c in cells)
        assert values == [("arppath",), ("stp",)]

    def test_unknown_axis_raises(self):
        with pytest.raises(KeyError):
            runner.expand_grid(["proxy"], seeds=[0], axes={"bogus": [1]})

    def test_unsweepable_axis_raises(self):
        with pytest.raises(ValueError):
            runner.expand_grid(["proxy"], seeds=[0], axes={"seeds": [1]})


class TestExecution:
    @pytest.fixture(scope="class")
    def serial_report(self):
        cells = runner.expand_grid(["proxy"], seeds=[0, 1], axes=TINY_AXES)
        return runner.SweepRunner(cells, jobs=1).run()

    def test_rows_tagged_with_cell_identity(self, serial_report):
        rows = serial_report.rows()
        assert rows
        for row in rows:
            assert row["scenario"] == "proxy"
            assert row["seed"] in (0, 1)
            assert row["rounds"] == 1

    def test_parallel_matches_serial(self, serial_report):
        cells = runner.expand_grid(["proxy"], seeds=[0, 1], axes=TINY_AXES)
        parallel = runner.SweepRunner(cells, jobs=2).run()
        assert parallel.rows() == serial_report.rows()
        assert parallel.summary_rows() == serial_report.summary_rows()

    def test_summary_aggregates_over_seeds(self, serial_report):
        summary = serial_report.summary_rows()
        for row in summary:
            assert row["n_runs"] == 2
            assert "seed" not in row
            assert "arp_link_frames_mean" in row

    def test_failing_cell_reported_not_raised(self):
        bad = runner.SweepCell(index=0, scenario="proxy", seed=0,
                               overrides=(("rows", -1),))
        result = runner.execute_cell(bad)
        assert not result.ok
        assert result.error and result.rows == []

    def test_payload_shape(self, serial_report):
        payload = serial_report.as_payload()
        assert set(payload) == {"cells", "rows", "summary"}
        assert payload["cells"][0]["scenario"] == "proxy"
        assert payload["cells"][0]["error"] is None
        assert payload["cells"][0]["telemetry"] == {}

    def test_scale_telemetry_rides_beside_the_rows(self):
        cell = runner.SweepCell(index=0, scenario="scale", seed=0,
                                overrides=runner.freeze_overrides(
                                    registry.get("scale").smoke))
        result = runner.execute_cell(cell)
        (row,) = result.rows
        assert result.telemetry == {"events_processed": [323],
                                    "peak_pending_events": [42]}
        assert not set(result.telemetry) & set(row)
        (payload,) = runner.SweepReport(cells=[result]).as_payload()["cells"]
        assert payload["telemetry"] == result.telemetry


class TestAggregation:
    def test_aggregate_single_value_has_zero_ci(self):
        stats = aggregate([2.5])
        assert stats.n == 1 and stats.mean == 2.5 and stats.ci95 == 0.0

    def test_aggregate_known_ci(self):
        # n=4, sample stdev 1, t(3)=3.182 -> half-width 1.591
        stats = aggregate([1.0, 2.0, 3.0, 2.0])
        assert stats.n == 4
        assert stats.mean == 2.0
        assert stats.ci95 == pytest.approx(3.182 * stats.stdev / 2.0)

    def test_rows_group_on_string_fields_not_seed(self):
        rows = [{"protocol": "a", "seed": 0, "value": 1.0},
                {"protocol": "a", "seed": 1, "value": 3.0},
                {"protocol": "b", "seed": 0, "value": 10.0}]
        summary = aggregate_rows(rows)
        assert len(summary) == 2
        a_row = next(r for r in summary if r["protocol"] == "a")
        assert a_row["n_runs"] == 2
        assert a_row["value_mean"] == 2.0

    def test_numeric_key_fields_split_groups(self):
        rows = [{"case": 1, "seed": 0, "value": 1.0},
                {"case": 2, "seed": 0, "value": 9.0}]
        merged = aggregate_rows(rows)
        split = aggregate_rows(rows, key_fields=("case",))
        assert len(merged) == 1
        assert len(split) == 2

    def test_bools_are_keys_not_metrics(self):
        rows = [{"proxy": True, "seed": 0, "value": 1.0},
                {"proxy": False, "seed": 0, "value": 2.0}]
        assert len(aggregate_rows(rows)) == 2

    def test_all_none_column_stays_identity(self):
        rows = [{"protocol": "a", "seed": 0, "value": None},
                {"protocol": "a", "seed": 1, "value": None}]
        summary = aggregate_rows(rows)
        assert len(summary) == 1
        # "value" is numeric in no row, so it stays an identity column
        # shared by both rows and produces no metric pair.
        assert summary[0]["n_runs"] == 2
        assert "value_mean" not in summary[0]

    def test_partially_none_metric_does_not_fragment_group(self):
        # An outage that never recovered is None for one seed and
        # numeric for another; the group must stay whole and average
        # over the seeds that produced a number.
        rows = [{"protocol": "stp", "failure_index": 1, "link": "NF1-NF2",
                 "outage": 0.5, "seed": 0},
                {"protocol": "stp", "failure_index": 1, "link": "NF1-NF2",
                 "outage": None, "seed": 1}]
        summary = aggregate_rows(rows, key_fields=("failure_index",))
        assert len(summary) == 1
        assert summary[0]["n_runs"] == 2
        assert summary[0]["outage_mean"] == 0.5
