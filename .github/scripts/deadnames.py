"""Dead-name ratchet: public definitions in src/ that only tests name.

A public function, method or class defined in ``src/`` is dead when
``tests/`` names it (as a bare word) but ``src/``, ``examples/``,
``bench/``, ``benchmarks/`` and ``.github/`` do not, outside its own
definitions and the header lines of same-named ones. A package
``__init__.py``'s import statements and its ``__all__`` assignment are
not uses either: a re-export gives a name no caller. Nor is prose: in a
``.py`` file, comments and docstrings are blanked before the search. Every dead name
must be in ``deadnames.txt`` beside this script, with a reason; an
entry that is no longer dead fails too, so the list only shrinks.
Names reached only through ``getattr`` or HTTP dispatch look dead too
and are allowlisted by hand. Exit status 1 on any mismatch.

Run it as ``python .github/scripts/deadnames.py`` (from any directory).
"""

import ast
import io
import os
import re
import sys
import tokenize
from collections import defaultdict
from pathlib import Path

ROOTS = ("src", "examples", "bench", "benchmarks", ".github")
ALLOWLIST = Path(__file__).resolve().with_name("deadnames.txt")
os.chdir(ALLOWLIST.parents[2])          # the repository root

defined = defaultdict(list)             # name -> [(path, first, last)]
headers = set()                         # (path, line) of every def line
for path in sorted(Path("src").rglob("*.py")):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            defined[node.name].append((path, first, node.end_lineno))
            headers.add((path, node.lineno))

reexports = set()                       # (path, line) of __init__ imports and __all__
for path in sorted(p for root in ROOTS for p in Path(root).rglob("__init__.py")):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            reexports.update((path, n) for n in range(node.lineno, node.end_lineno + 1))


def lines_of(path, prose):
    """The lines of *path*; unless *prose*, a .py file's comments and
    docstrings are blanked."""
    lines = path.read_text(errors="ignore").splitlines()
    if prose or path.suffix != ".py":
        return lines
    source = "\n".join(lines) + "\n"
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            row, column = token.start
            lines[row - 1] = lines[row - 1][:column]
    for node in ast.walk(ast.parse(source, str(path))):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            for number in range(node.lineno - 1, node.end_lineno):
                lines[number] = ""
    return lines


def words(root, prose=False):
    """(path, line number, defined names on it) for every line under root."""
    for path in sorted(Path(root).rglob("*")):
        if (path.is_file() and path.resolve() != ALLOWLIST
                and "__pycache__" not in path.parts):
            for number, line in enumerate(lines_of(path, prose), 1):
                yield path, number, set(re.findall(r"\w+", line)) & defined.keys()


used = {name for root in ROOTS for path, number, names in words(root) for name in names
        if (path, number) not in headers and (path, number) not in reexports
        and not any(path == where and first <= number <= last
                    for where, first, last in defined[name])}
dead = {name for _path, _number, names in words("tests", prose=True) for name in names} - used
allowed = {line.split("#")[0].strip() for line in ALLOWLIST.read_text().splitlines()} - {""}
for name in sorted(dead - allowed):
    where = ", ".join(f"{path}:{first}" for path, first, _ in defined[name])
    print(f"dead name {name} ({where}): give it a library caller, delete it, "
          f"or allowlist it with a reason")
for name in sorted(allowed - dead):
    print(f"stale allowlist entry {name}: it has a caller now (or is gone); remove it")
print(f"{len(dead)} names only tests call; {len(allowed)} allowlisted")
sys.exit(1 if dead ^ allowed else 0)
