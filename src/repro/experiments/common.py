"""Shared experiment plumbing.

Each experiment module registers its scenario's one run function in
:mod:`repro.experiments.registry`; callers reach it through
``registry.get(name).execute(...)``, which returns the scenario's
records (flat dicts, printed by
:func:`repro.metrics.report.format_rows`). The helpers here
standardise protocol selection and warmup.

Protocol knowledge (factories, warmup budgets, loop-safety, per-family
config options) lives in the :class:`~repro.switching.base.BridgeFamily`
registry; :func:`spec` is a view over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.config import ArpPathConfig
from repro.netsim.engine import Simulator
from repro.switching import base
from repro.topology.builder import BridgeFactory, Network


@dataclass(frozen=True)
class ProtocolSpec:
    """A named protocol configuration an experiment compares."""

    name: str
    factory: BridgeFactory
    warmup: float


def spec(protocol: str, *, arppath_config: Optional[ArpPathConfig] = None,
         stp_scale: Optional[float] = None) -> ProtocolSpec:
    """Build a :class:`ProtocolSpec` by name with common tweaks."""
    try:
        fam = base.family(protocol)
    except KeyError:
        raise ValueError(f"unknown protocol: {protocol}")
    name, warmup = fam.name, fam.warmup
    if protocol == "arppath" and arppath_config is not None:
        factory = fam.factory(arppath_config)
    elif stp_scale is not None and fam.scaled is not None:
        name, factory, warmup = fam.scaled(stp_scale)
    else:
        factory = fam.factory()
    return ProtocolSpec(name=name, factory=factory, warmup=warmup)


def build_and_warm(topology: Callable[..., Network], protocol: ProtocolSpec,
                   seed: int = 0, **topo_kwargs) -> Network:
    """Instantiate *topology* under *protocol* and run its warmup.

    Warm-up control traffic (BPDUs, LSPs, hellos) only bumps the links'
    tallies; an experiment opens its measured window with
    ``net.sim.tracer.reset()``.
    """
    sim = Simulator(seed=seed)
    net = topology(sim, protocol.factory, **topo_kwargs)
    net.run(protocol.warmup)
    return net
