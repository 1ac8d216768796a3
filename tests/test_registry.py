"""Tests for the scenario registry contract."""

import inspect

import pytest

from repro.cli import build_parser
from repro.experiments import registry


class TestRegistration:
    def test_all_eight_experiments_plus_ping(self):
        names = registry.names()
        for expected in ("fig2", "fig3", "stretch", "loopfree", "proxy",
                         "loadbalance", "ablations", "occupancy", "ping"):
            assert expected in names

    def test_every_scenario_has_uniform_seeds_param(self):
        for scenario in registry.all_scenarios():
            param = scenario.param("seeds")
            assert param.nargs == "+"
            assert isinstance(param.default, list)
            assert all(isinstance(s, int) for s in param.default)

    def test_every_scenario_declares_smoke_params(self):
        for scenario in registry.all_scenarios():
            bound = scenario.bind(scenario.smoke)  # must validate
            assert set(scenario.smoke) <= set(bound)

    def test_duplicate_registration_rejected(self):
        scenario = registry.get("proxy")
        with pytest.raises(ValueError):
            registry.register(scenario)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            registry.get("nonesuch")


class TestParamSpec:
    def test_flag_derivation(self):
        param = registry.Param("cross_latency_us", float, 500.0)
        assert param.flag == "--cross-latency-us"

    def test_parse_coerces_and_validates_choices(self):
        param = registry.Param("protocol", str, "arppath",
                               choices=("arppath", "stp"))
        assert param.parse("stp") == "stp"
        with pytest.raises(ValueError):
            param.parse("trill")

    def test_bind_fills_defaults_and_rejects_unknown(self):
        scenario = registry.get("stretch")
        bound = scenario.bind({"bridges": 6})
        assert bound["bridges"] == 6
        assert bound["hosts"] == 4  # untouched default
        with pytest.raises(KeyError):
            scenario.bind({"bogus": 1})

    def test_bind_copies_list_defaults(self):
        scenario = registry.get("stretch")
        scenario.bind()["seeds"].append(99)
        assert 99 not in scenario.bind()["seeds"]


class TestOneDeclaration:
    """A scenario is declared once: its registered function's keywords
    are exactly its params, and a default lives only in the ``Param``."""

    #: Scenarios whose multi-seed rows are grouped by this row field
    #: ahead of the seed; every other scenario is seed-major.
    OUTER_FIELD = {"stretch": "protocol", "ablations": "sweep"}

    @pytest.mark.parametrize("name", registry.names())
    def test_run_keywords_are_the_params_without_defaults(self, name):
        scenario = registry.get(name)
        parameters = inspect.signature(scenario.run).parameters.values()
        assert {p.name for p in parameters} == \
            {p.name for p in scenario.params}
        for parameter in parameters:
            assert parameter.kind is parameter.POSITIONAL_OR_KEYWORD
            assert parameter.default is parameter.empty, parameter.name

    @pytest.mark.parametrize("name", registry.names())
    def test_multiple_seeds_concatenate_rows(self, name):
        """Rows at ``seeds=[0, 1]`` are the per-seed rows in the
        scenario's order, and every row is a flat dict of primitives."""
        scenario = registry.get(name)
        smoke = dict(scenario.smoke)
        smoke.pop("seeds", None)
        per_seed = [row for seed in (0, 1)
                    for row in scenario.execute(seeds=[seed], **smoke)]
        outer = self.OUTER_FIELD.get(name)
        if outer is not None:
            groups = list(dict.fromkeys(row[outer] for row in per_seed))
            per_seed.sort(key=lambda row: groups.index(row[outer]))
        assert per_seed
        for row in per_seed:
            assert type(row) is dict
            for value in row.values():
                assert value is None or isinstance(
                    value, (str, bool, int, float))
        assert scenario.execute(seeds=[0, 1], **smoke) == per_seed

    def test_empty_seeds_rejected_at_the_boundaries(self):
        parser = build_parser()
        for scenario in registry.all_scenarios():
            with pytest.raises(registry.SubmissionError,
                               match="non-empty"):
                scenario.param("seeds").validate([])
            with pytest.raises(SystemExit):
                parser.parse_args([scenario.name, "--seeds"])


class TestResultRowProtocol:
    """Every scenario emits machine-readable rows."""

    def test_records_are_flat_primitive_dicts(self):
        scenario = registry.get("proxy")
        rows = scenario.execute(**scenario.smoke)
        assert rows
        for row in rows:
            assert type(row) is dict
            for value in row.values():
                assert value is None or isinstance(
                    value, (str, bool, int, float))

    def test_protocol_specs_helper_scales_stp(self):
        full, = registry.protocol_specs(["stp"])
        scaled, = registry.protocol_specs(["stp"], stp_scale=0.1)
        assert full.name == "stp"
        assert scaled.name == "stp(x0.1)"
        assert scaled.warmup < full.warmup
