"""Shared experiment plumbing.

Each experiment module exposes a ``run(...)`` returning a result object
with a ``table()`` method; benches and examples print that table. The
helpers here standardise protocol selection, warmup and probe running.

Protocol knowledge (factories, warmup budgets, loop-safety, per-family
config options) lives in the :class:`~repro.switching.base.BridgeFamily`
registry; :func:`spec` is a view over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

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

    @property
    def label(self) -> str:
        return self.name


def spec(protocol: str, *, arppath_config: Optional[ArpPathConfig] = None,
         stp_scale: Optional[float] = None,
         warmup: Optional[float] = None,
         family_options: Optional[Dict[str, object]] = None) -> ProtocolSpec:
    """Build a :class:`ProtocolSpec` by name with common tweaks."""
    try:
        fam = base.family(protocol)
    except KeyError:
        raise ValueError(f"unknown protocol: {protocol}")
    name = fam.name
    if protocol == "arppath" and arppath_config is not None:
        factory = fam.factory(arppath_config)
        default_warmup = fam.warmup
    elif stp_scale is not None and fam.scaled is not None:
        name, factory, default_warmup = fam.scaled(stp_scale)
    elif family_options:
        factory = fam.factory(**family_options)
        default_warmup = fam.warmup
    else:
        factory = fam.factory()
        default_warmup = fam.warmup
    return ProtocolSpec(name=name, factory=factory,
                        warmup=warmup if warmup is not None else default_warmup)


def build_and_warm(topology: Callable[..., Network], protocol: ProtocolSpec,
                   seed: int = 0, trace_hops: bool = False,
                   **topo_kwargs) -> Network:
    """Instantiate *topology* under *protocol* and run its warmup.

    Warm-up control traffic (BPDUs, LSPs, hellos) only bumps the links'
    tallies; an experiment opens its measured window with
    ``net.sim.tracer.reset()``.
    """
    sim = Simulator(seed=seed, trace_hops=trace_hops)
    net = topology(sim, protocol.factory, **topo_kwargs)
    net.run(protocol.warmup)
    return net
