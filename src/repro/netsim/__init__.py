"""Discrete-event network simulator: engine, nodes, ports, links, tracing."""

from repro.netsim.engine import (Event, Periodic, PRIORITY_EARLY,
                                 PRIORITY_LATE, PRIORITY_NORMAL, Simulator)
from repro.netsim.errors import (AddressError, InvariantError, NetsimError,
                                 RecordRetentionError, SchedulingError,
                                 TopologyError)
from repro.netsim.link import (DEFAULT_BANDWIDTH, DEFAULT_LATENCY,
                               DEFAULT_QUEUE_CAPACITY, Link)
from repro.netsim.node import Node, Port
from repro.netsim.tracer import (DELIVERED, DROP_LINK_DOWN, DROP_QUEUE,
                                 SENT, TraceRecord, Tracer)

__all__ = [
    "Event", "Periodic", "PRIORITY_EARLY", "PRIORITY_LATE", "PRIORITY_NORMAL",
    "Simulator",
    "AddressError", "InvariantError", "NetsimError", "RecordRetentionError",
    "SchedulingError",
    "TopologyError",
    "DEFAULT_BANDWIDTH", "DEFAULT_LATENCY", "DEFAULT_QUEUE_CAPACITY", "Link",
    "Node", "Port",
    "DELIVERED", "DROP_LINK_DOWN", "DROP_QUEUE", "SENT",
    "TraceRecord", "Tracer",
]
