"""The dead-name ratchet (``.github/scripts/deadnames.py``) on a tiny
tree: a name that ``tests/`` names and a package ``__init__.py`` only
re-exports is dead, and so is one that only a docstring or a comment
mentions; a call from another module gives it a caller."""

import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "deadnames.py"


def ratchet(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / ".github" / "scripts" / "deadnames.py")],
                          capture_output=True, text=True, timeout=60)


def tree(tmp_path: Path) -> Path:
    scripts = tmp_path / ".github" / "scripts"
    scripts.mkdir(parents=True)
    shutil.copy(SCRIPT, scripts / "deadnames.py")
    (scripts / "deadnames.txt").write_text("")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'from pkg.core import helper\n\n__all__ = ["helper"]\n')
    (package / "core.py").write_text("def helper():\n    return 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text(
        "from pkg import helper\n\n\ndef test_helper():\n    assert helper() == 1\n")
    return tmp_path


def test_a_re_export_is_not_a_caller(tmp_path):
    run = ratchet(tree(tmp_path))
    assert run.returncode == 1, run.stdout
    assert "dead name helper (src/pkg/core.py:1)" in run.stdout


def test_a_library_call_is_a_caller(tmp_path):
    root = tree(tmp_path)
    (root / "src" / "pkg" / "other.py").write_text(
        "from pkg.core import helper\n\n\ndef twice():\n    return 2 * helper()\n")
    run = ratchet(root)
    assert run.returncode == 0, run.stdout
    assert "0 names only tests call; 0 allowlisted" in run.stdout


def test_a_docstring_or_comment_mention_is_not_a_caller(tmp_path):
    root = tree(tmp_path)
    (root / "src" / "pkg" / "other.py").write_text(
        '"""Built on helper."""\n\n\ndef twice():\n'
        '    """Two helper calls\'s worth."""\n    return 2  # was 2 * helper()\n')
    run = ratchet(root)
    assert run.returncode == 1, run.stdout
    assert "dead name helper (src/pkg/core.py:1)" in run.stdout


def test_a_markdown_or_yaml_comment_mention_is_not_a_caller(tmp_path):
    root = tree(tmp_path)
    (root / "src" / "pkg" / "README.md").write_text(
        "Call `helper()` once per step.\n")
    workflows = root / ".github" / "workflows"
    workflows.mkdir()
    (workflows / "ci.yml").write_text(
        "steps:\n  # the helper step\n  - run: echo ok  # helper\n")
    run = ratchet(root)
    assert run.returncode == 1, run.stdout
    assert "dead name helper (src/pkg/core.py:1)" in run.stdout

    (workflows / "ci.yml").write_text("steps:\n  - run: helper\n")
    run = ratchet(root)
    assert run.returncode == 0, run.stdout
