"""The benchmark's own contract, checked by running it.

Run explicitly — ``python -m pytest bench/test_contract.py`` — it is not
collected by the tier-1 suite (``testpaths = tests``) because it spends
about a minute running the quick suite.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import shutil
import subprocess
import sys

import pytest
from repro.experiments import registry

from bench import OUT, ROOT
from bench.workloads import IN_PROCESS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "bench.run", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def quick_suite():
    """``bench.run --quick --trace`` once; its result document."""
    done = _bench("--quick", "--trace")
    assert done.returncode == 0, done.stderr[-2000:]
    with open(os.path.join(OUT, "result.json")) as handle:
        return json.load(handle)


def test_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_declared_name_is_emitted_and_vice_versa(spec, quick_suite):
    assert set(quick_suite["workloads"]) \
        == {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    emitted_layers = set()
    for name, report in quick_suite["workloads"].items():
        assert set(report["end_to_end"]) == end_to_end, name
        assert all(s["median"] > 0 for s in report["end_to_end"].values())
        emitted_layers |= set(report["per_layer"])
    assert emitted_layers == per_layer


def test_no_check_failed(quick_suite):
    for name, report in quick_suite["workloads"].items():
        assert report["failures"] == [], name
        assert report["attempted"] >= 1


def test_phase_spans_sum_to_the_wall(quick_suite):
    for name in IN_PROCESS:
        layer = quick_suite["workloads"][name]["per_layer"]
        assert layer["budget.residual_share"] <= 0.05, name
    for name in IN_PROCESS:
        with open(os.path.join(OUT, f"trace-{name}.json")) as handle:
            spans = json.load(handle)["spans"]
        assert spans and all(
            set(span) == {"name", "start", "end", "parent", "workload",
                          "round"} for span in spans)


def test_machine_state_is_recorded(quick_suite):
    for when in ("before", "after"):
        state = quick_suite["env"][when]
        assert set(state) == {"nproc", "python", "cpu_model", "loadavg",
                              "calib_ns"}
        assert state["calib_ns"] > 0


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_contract_line(spec, trace, key):
    done = _bench("--workload", "discovery_storm", "--seed", "5",
                  "--seconds", "1", "--quick", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in spec[key]]
    units = {m["name"]: m["unit"] for m in spec[key]}
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "unicast_fabric", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_the_seed_reaches_only_the_generators():
    registry.load_all()
    for name, (generate, cls) in WORKLOADS.items():
        assert list(inspect.signature(generate).parameters) \
            == ["seed", "quick"], name
        assert list(inspect.signature(cls.__init__).parameters) \
            == ["self", "tmp"], name
        for _, method in inspect.getmembers(cls, inspect.isfunction):
            assert "seed" not in inspect.signature(method).parameters
        assert generate(7, True) == generate(7, True), name
        assert generate(7, True) != generate(8, True), name
