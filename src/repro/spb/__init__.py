"""Shortest-path bridging baseline: link-state control plane at layer 2."""

from repro.spb.bridge import (DEFAULT_HELLO_HOLD, DEFAULT_HELLO_INTERVAL,
                              DEFAULT_HOST_AGING, DEFAULT_LSP_MAX_AGE,
                              DEFAULT_LSP_REFRESH, SpbBridge, SpbCounters)
from repro.spb.lsp import (Adjacency, LinkStatePacket, SPB_MULTICAST,
                           SpbHello)

__all__ = [
    "DEFAULT_HELLO_HOLD", "DEFAULT_HELLO_INTERVAL", "DEFAULT_HOST_AGING",
    "DEFAULT_LSP_MAX_AGE", "DEFAULT_LSP_REFRESH", "SpbBridge", "SpbCounters",
    "Adjacency", "LinkStatePacket", "SPB_MULTICAST", "SpbHello",
]
