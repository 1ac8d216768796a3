"""One benchmark for the simulator: six workloads measured from outside.

``python -m bench.run`` is the only entry point (see ``bench/README.md``).
Importing this package puts the checkout's ``src/`` first on ``sys.path``:
the benchmark measures the sources beside it, never an installed ``repro``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
