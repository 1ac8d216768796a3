"""The library's runtime footprint: the standard library, nothing else.

networkx is a test oracle (``repro.testing.graph_of``), never a runtime
dependency. A fresh interpreter loads every scenario, the CLI and the
serve daemon, runs each scenario's smoke cell and one controller-family
``scale`` cell, and must never have imported it. A deferred import
would show here too: the cells run every code path a sweep worker
takes.
"""

import os
import subprocess
import sys

import repro

PROBE = """
import sys
from repro.experiments import registry
registry.load_all()
import repro.cli, repro.server
for scenario in registry.all_scenarios():
    scenario.execute(**scenario.smoke)
scale = registry.get("scale")
scale.execute(**dict(scale.smoke, protocols=["controller"]))
print(sorted(name for name in sys.modules
             if name.split(".")[0] == "networkx"))
"""


def test_runtime_paths_never_import_networkx():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"
