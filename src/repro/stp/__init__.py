"""802.1D spanning tree baseline (the protocol the demo compares against)."""

from repro.stp.bpdu import (BridgeId, ConfigBpdu, DEFAULT_BRIDGE_PRIORITY,
                            DEFAULT_PORT_PRIORITY, PATH_COST_1G, PortId,
                            PriorityVector, TcnBpdu)
from repro.stp.bridge import (MESSAGE_AGE_INCREMENT, PortRole, PortState,
                              StpBridge, StpCounters, StpPortInfo, StpTimers)

__all__ = [
    "BridgeId", "ConfigBpdu", "DEFAULT_BRIDGE_PRIORITY",
    "DEFAULT_PORT_PRIORITY", "PATH_COST_1G", "PortId", "PriorityVector",
    "TcnBpdu",
    "MESSAGE_AGE_INCREMENT", "PortRole", "PortState", "StpBridge",
    "StpCounters", "StpPortInfo", "StpTimers",
]
