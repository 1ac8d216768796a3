"""docs/API.md generation: deterministic render + the CI drift gate.

``test_committed_doc_is_current`` is the tier-1 twin of the CI docs
job: change a Param spec without regenerating docs/API.md and this
fails locally before CI ever sees it.
"""

import os
import re
from pathlib import Path

from repro.experiments import registry
from repro.server import docgen

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC = os.path.join(REPO_ROOT, "docs", "API.md")


class TestRender:
    def test_render_is_deterministic(self):
        assert docgen.render() == docgen.render()

    def test_every_scenario_gets_a_section(self):
        content = docgen.render()
        registry.load_all()
        for scenario in registry.all_scenarios():
            assert f"### `{scenario.name}` — {scenario.title}" \
                in content

    def test_every_param_appears_in_its_table(self):
        content = docgen.render()
        for scenario in registry.all_scenarios():
            for param in scenario.params:
                assert f"| `{param.name}` |" in content

    def test_header_marks_the_file_generated(self):
        content = docgen.render()
        assert "Generated file — do not edit by hand" in content
        assert "docgen --check" in content

    def test_envelope_documents_required_scenario(self):
        content = docgen.render()
        assert "| `scenario` | string | yes |" in content


class TestDriftGate:
    def test_committed_doc_is_current(self):
        # The committed docs/API.md must equal a fresh render; if this
        # fails, run `python -m repro.server.docgen --write`.
        with open(DOC) as handle:
            committed = handle.read()
        assert committed == docgen.render(), \
            "docs/API.md drifted — run " \
            "`python -m repro.server.docgen --write`"

    def test_check_mode_passes_on_committed_doc(self):
        assert docgen.main(["--check", "--doc", DOC]) == 0

    def test_check_mode_fails_on_tampered_doc(self, tmp_path, capsys):
        tampered = tmp_path / "API.md"
        tampered.write_text(docgen.render() + "\nstray edit\n")
        assert docgen.main(["--check", "--doc", str(tampered)]) == 1
        assert "drifted" in capsys.readouterr().err

    def test_check_mode_fails_on_missing_doc(self, tmp_path):
        missing = tmp_path / "API.md"
        assert docgen.main(["--check", "--doc", str(missing)]) == 1

    def test_write_mode_round_trips(self, tmp_path):
        doc = tmp_path / "API.md"
        assert docgen.main(["--write", "--doc", str(doc)]) == 0
        assert docgen.main(["--check", "--doc", str(doc)]) == 0


class TestDocReferences:
    def test_every_markdown_file_named_in_src_exists(self):
        """A docstring that points at a document points at one in the
        repository root or ``docs/``."""
        root = Path(REPO_ROOT)
        missing = sorted(
            (str(path.relative_to(root)), doc)
            for path in (root / "src").rglob("*.py")
            for doc in re.findall(r"[\w./-]+\.md\b", path.read_text(encoding="utf-8"))
            if not (root / doc).is_file() and not (root / "docs" / doc).is_file())
        assert missing == []
