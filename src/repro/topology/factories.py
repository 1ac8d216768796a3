"""Bridge factories: one per protocol family under test.

A factory fixes the protocol and its configuration; the topology
functions take a factory so the same wiring can run every protocol —
how the demo reuses one physical setup for both ARP-Path and STP.

The authoritative registry lives in :mod:`repro.switching.base`: each
family package registers a :class:`~repro.switching.base.BridgeFamily`
descriptor at import, and the named convenience builders here are a
thin view over it; :func:`repro.switching.base.family` looks a family
up by name.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ArpPathConfig, DEFAULT_CONFIG
from repro.stp.bridge import StpTimers
from repro.switching import base
from repro.topology.builder import BridgeFactory


def arppath(config: ArpPathConfig = DEFAULT_CONFIG) -> BridgeFactory:
    """A factory producing ARP-Path bridges with *config*."""
    return base.family("arppath").factory(config)


def stp(timers: StpTimers = StpTimers(),
        priority: Optional[int] = None) -> BridgeFactory:
    """A factory producing 802.1D bridges.

    With the default *priority* of None every bridge uses 0x8000 and the
    lowest MAC wins root election (bridge creation order), exactly like
    an unconfigured ``bridge_utils`` deployment.
    """
    return base.family("stp").factory(timers=timers, priority=priority)


def stp_scaled(factor: float) -> BridgeFactory:
    """STP with all timers scaled by *factor* (e.g. 0.1 for 10x faster)."""
    return stp(timers=StpTimers().scaled(factor))


def spb(**kwargs) -> BridgeFactory:
    """A factory producing link-state shortest-path bridges."""
    return base.family("spb").factory(**kwargs)


def learning() -> BridgeFactory:
    """A factory producing plain learning switches (loop-unsafe)."""
    return base.family("learning").factory()


def controller(**kwargs) -> BridgeFactory:
    """A factory producing centrally managed (SDN) bridges."""
    return base.family("controller").factory(**kwargs)
