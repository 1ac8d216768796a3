"""Every record golden in ``tests/goldens.json``, and the grids that drive
``.github/scripts/parity.py``.

One parametrised test recomputes each golden's digest (the test id is
the entry's id); the rest check the two files themselves, so a renamed
parameter or a hand-edited digest fails here and not only in CI.
Regenerating the goldens is ``PYTHONPATH=src python tests/goldens.py
--write``.
"""

import importlib.util
import os
import re

import pytest

import goldens
from repro.experiments import registry, runner

GOLDENS = goldens.load()
IDS = [golden["id"] for golden in GOLDENS]

PARITY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".github", "scripts", "parity.py")


@pytest.mark.parametrize("golden", GOLDENS, ids=IDS)
def test_records_match_golden(golden):
    assert goldens.digest(golden) == golden["sha256"], \
        f"golden {golden['id']} moved"


class TestGoldensFile:
    def test_ids_are_unique(self):
        assert len(IDS) == len(set(IDS))

    def test_digests_are_lowercase_sha256(self):
        for golden in GOLDENS:
            assert re.fullmatch("[0-9a-f]{64}", golden["sha256"]), \
                golden["id"]

    @pytest.mark.parametrize("golden", GOLDENS, ids=IDS)
    def test_entry_binds(self, golden):
        assert set(golden) == {"id", "scenario", "seed", "params", "rows",
                               "sha256"}
        assert golden["rows"] in ("records", "cell")
        assert "seeds" not in golden["params"]
        registry.get(golden["scenario"]).bind(golden["params"])

    def test_written_form_is_stable(self):
        with open(goldens.PATH) as handle:
            assert handle.read() == goldens.dumps(GOLDENS)


def test_every_parity_grid_expands():
    spec = importlib.util.spec_from_file_location("parity", PARITY)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    assert set(parity.JOBS_GRIDS) <= set(parity.GRIDS)
    for name, grid in parity.GRIDS.items():
        cells = runner.expand_grid(grid["scenarios"], grid["seeds"],
                                   grid["set"])
        assert cells, name
        for cell in cells:
            scenario = registry.get(cell.scenario)
            for param, value in cell.params().items():
                scenario.param(param).validate(value, f"{name}: {param}")
