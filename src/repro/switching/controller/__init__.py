"""The centralized SDN/SPF controller family — the fifth baseline.

The paper's ARP-Path argument is usually framed against two classes of
rival: distributed link-state bridging (the ``spb`` family) and a
*centralized* controller computing shortest paths over a global view.
This package supplies that missing baseline: an out-of-band
:class:`~repro.switching.controller.controller.Controller` node with an
LLDP-fed ``networkx`` graph, and
:class:`~repro.switching.controller.bridge.ControllerBridge` dataplanes
that punt table misses as packet-ins and hold flow entries with
idle/hard timeouts.

Wiring is automatic: the family factory attaches a ``network_finalize``
hook that :meth:`repro.topology.builder.Network.finalize_topology` runs
once the fabric is built — it creates the controller and one dedicated
star link (latency ``rtt / 2``, infinite bandwidth) to every bridge.
Experiments and topologies need no controller-specific code.
"""

from __future__ import annotations

from repro.frames.ethernet import ETHERTYPE_CONTROLLER
from repro.frames.mac import MAC, mac_for_controller
from repro.netsim.engine import Simulator
from repro.switching.base import BridgeFamily, FamilyOption, register_family
from repro.switching.controller.bridge import ControllerBridge
from repro.switching.controller.config import (ControllerConfig,
                                               DEFAULT_CONTROLLER_CONFIG)
from repro.switching.controller.controller import Controller

__all__ = ["Controller", "ControllerBridge", "ControllerConfig",
           "DEFAULT_CONTROLLER_CONFIG", "wire_controller"]

#: Default warmup: LLDP discovery plus the debounced first flood rule
#: settle within tens of milliseconds of simulated time; 3 s is ample.
CONTROLLER_WARMUP = 3.0


def wire_controller(net, config: ControllerConfig) -> "Controller":
    """Create the controller node and its star links on *net*.

    Idempotent per network (``finalize_topology`` also guards): one
    controller, one link per bridge, wired in sorted bridge-name order
    so port indices are deterministic.
    """
    existing = getattr(net, "controllers", None)
    if existing:
        return next(iter(existing.values()))
    controller = Controller(net.sim, "controller0", mac_for_controller(0),
                            config)
    net.add_out_of_band(controller)
    for bridge_name in sorted(net.bridges):
        net.link(controller.name, bridge_name, latency=config.rtt / 2,
                 bandwidth=None)
    return controller


def _controller_factory(config: ControllerConfig = None, **overrides):
    """A factory producing controller-managed bridges.

    Accepts either a ready :class:`ControllerConfig` or individual
    keyword overrides for its fields. The returned closure carries the
    ``network_finalize`` hook that wires the out-of-band control plane.
    """
    if config is None:
        config = ControllerConfig(**overrides) if overrides \
            else DEFAULT_CONTROLLER_CONFIG
    elif overrides:
        raise TypeError("pass either config= or field overrides, not both")

    def build(sim: Simulator, name: str, mac: MAC) -> ControllerBridge:
        return ControllerBridge(sim, name, mac, config=config)

    def finalize(net) -> None:
        wire_controller(net, config)

    build.network_finalize = finalize
    return build


_DEFAULTS = DEFAULT_CONTROLLER_CONFIG

register_family(BridgeFamily(
    name="controller",
    title="Centralized SDN controller: global SPF over an out-of-band "
          "control channel",
    factory=_controller_factory,
    warmup=CONTROLLER_WARMUP,
    loop_safe=True,
    order=50,
    control_ethertypes=(ETHERTYPE_CONTROLLER,),
    options=(
        FamilyOption("rtt", "float", _DEFAULTS.rtt,
                     "bridge-controller round-trip time (seconds)"),
        FamilyOption("install_latency", "float", _DEFAULTS.install_latency,
                     "flow-mod programming delay at the bridge (seconds)"),
        FamilyOption("flow_idle", "float", _DEFAULTS.flow_idle,
                     "flow entry idle timeout (seconds)"),
        FamilyOption("flow_hard", "float", _DEFAULTS.flow_hard,
                     "flow entry hard timeout (seconds)"),
        FamilyOption("ecmp", "bool", _DEFAULTS.ecmp,
                     "hash flows across equal-cost shortest paths"),
        FamilyOption("lldp_interval", "float", _DEFAULTS.lldp_interval,
                     "LLDP neighbor probe period (seconds)"),
        FamilyOption("recompute_debounce", "float",
                     _DEFAULTS.recompute_debounce,
                     "flood-tree recompute debounce window (seconds)"),
    ),
))
