"""Tests for the registry-generated command-line interface.

The per-subcommand execution tests are parametrized over the scenario
registry: every registered scenario runs at its declared smallest
parameters through the real CLI entry point. Adding a scenario to the
registry automatically adds it here.
"""

import pytest

from repro.cli import build_parser, main
from repro.experiments import registry


def _smoke_argv(scenario: registry.Scenario) -> list:
    """CLI argv for the scenario's smallest-parameters run."""
    argv = [scenario.name]
    for name, value in scenario.smoke.items():
        argv.append(scenario.param(name).flag)
        values = value if isinstance(value, list) else [value]
        argv.extend(str(v) for v in values)
    return argv


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_scenarios_have_subcommands(self):
        parser = build_parser()
        subactions = next(a for a in parser._actions
                          if hasattr(a, "choices") and a.choices)
        assert set(subactions.choices) == \
            set(registry.names()) | {"sweep", "serve"}

    def test_eight_experiments_registered(self):
        assert set(registry.names()) >= {
            "fig2", "fig3", "stretch", "loopfree", "proxy", "loadbalance",
            "ablations", "occupancy"}

    def test_fig2_defaults_come_from_registry(self):
        args = build_parser().parse_args(["fig2"])
        assert args.probes is None  # None = use the registry default
        assert registry.get("fig2").bind()["probes"] == 20

    def test_ping_protocol_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ping", "--protocol", "trill"])

    def test_ping_rejects_learning_switch(self):
        """A learning switch storms on the loopy demo wiring; the CLI
        refuses to build that footgun."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ping", "--protocol", "learning"])

    @pytest.mark.parametrize("name", ["scale", "churn"])
    def test_shards_flag_is_gone(self, name):
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--shards", "2"])

    def test_stretch_multiple_seeds(self):
        args = build_parser().parse_args(["stretch", "--seeds", "1", "2"])
        assert args.seeds == [1, 2]


class TestSeedUniformity:
    """Regression: every subcommand accepts --seed N and --seeds N M."""

    @pytest.mark.parametrize("name", registry.names())
    def test_seed_and_seeds_accepted(self, name):
        parser = build_parser()
        single = parser.parse_args([name, "--seed", "7"])
        multi = parser.parse_args([name, "--seeds", "7", "8"])
        assert single.seed == 7
        assert multi.seeds == [7, 8]

    @pytest.mark.parametrize("name", registry.names())
    def test_seed_alias_matches_seeds(self, name):
        from repro.cli import _collect_overrides
        parser = build_parser()
        scenario = registry.get(name)
        via_alias = _collect_overrides(
            parser.parse_args([name, "--seed", "7"]), scenario)
        via_list = _collect_overrides(
            parser.parse_args([name, "--seeds", "7"]), scenario)
        assert via_alias["seeds"] == via_list["seeds"] == [7]

    @pytest.mark.parametrize("name", registry.names())
    def test_both_forms_rejected_together(self, name):
        parser = build_parser()
        scenario = registry.get(name)
        from repro.cli import _collect_overrides
        with pytest.raises(SystemExit):
            _collect_overrides(
                parser.parse_args([name, "--seed", "1", "--seeds", "2"]),
                scenario)


class TestExecution:
    """Every registered scenario runs through the CLI entry point at
    its smallest parameters: exit code 0 and its records' table under
    the scenario's title."""

    @pytest.mark.parametrize("name", registry.names())
    def test_scenario_smoke(self, name, capsys):
        scenario = registry.get(name)
        code = main(_smoke_argv(scenario))
        out = capsys.readouterr().out
        assert code == 0
        title = scenario.title
        assert out.startswith(f"{title}\n{'=' * len(title)}\n")

    def test_ping_reports_demo_path(self, capsys):
        code = main(["ping", "--protocol", "arppath", "--count", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rtt_mean" in out and "NF1->NF2->NF3" in out


class TestSweepCommand:
    def test_sweep_tiny_grid(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", "proxy", "--seeds", "0", "1",
                     "--set", "rows=2", "--set", "cols=2",
                     "--set", "rounds=1",
                     "--json", str(json_path), "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep — proxy" in out
        assert json_path.exists() and csv_path.exists()

    def test_sweep_prints_the_fig2_headline(self, capsys):
        code = main(["sweep", "fig2", "--seeds", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep — fig2" in out
        assert "ARP-Path speedup over STP: " in out

    def test_sweep_jsonl_is_canonical(self, capsys, tmp_path):
        # --jsonl writes the serve daemon's canonical record encoding:
        # sorted keys, compact separators, one row per line
        jsonl_path = tmp_path / "rows.jsonl"
        code = main(["sweep", "proxy", "--seeds", "0",
                     "--set", "rows=2", "--set", "cols=2",
                     "--set", "rounds=1", "--jsonl", str(jsonl_path)])
        capsys.readouterr()
        assert code == 0
        import json
        from repro.metrics.report import record_line
        lines = jsonl_path.read_text().splitlines()
        assert lines
        for line in lines:
            assert record_line(json.loads(line)) == line

    def test_sweep_unknown_scenario_exits_cleanly(self):
        with pytest.raises(SystemExit, match="nonesuch"):
            main(["sweep", "nonesuch"])

    def test_sweep_unknown_axis(self):
        with pytest.raises(SystemExit):
            main(["sweep", "proxy", "--set", "bogus=1,2"])
