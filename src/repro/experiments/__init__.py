"""Reproductions of the paper's experiments plus property checks and
ablations. See DESIGN.md §3 for the experiment index.

Each experiment module self-registers a scenario (name, typed param
spec, one run function whose keywords are the params) in
:mod:`repro.experiments.registry`; the CLI, the parallel sweep runner
(:mod:`repro.experiments.runner`), the serve daemon and library callers
all run a scenario through that table (``registry.get(name).execute``),
so its defaults live in one place.
"""

from repro.experiments import (ablations, broadcast, fig2_latency,
                               fig3_repair, loadbalance, loopfree,
                               occupancy, registry, stretch)
from repro.experiments.common import ProtocolSpec, build_and_warm, spec

__all__ = [
    "ablations", "broadcast", "fig2_latency", "fig3_repair", "loadbalance",
    "loopfree", "occupancy", "registry", "stretch",
    "ProtocolSpec", "build_and_warm", "spec",
]
