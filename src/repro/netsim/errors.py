"""Exception hierarchy for the network simulator."""


class NetsimError(Exception):
    """Base class for simulator errors."""


class SchedulingError(NetsimError):
    """Raised for invalid event scheduling (negative delay, past time)."""


class TopologyError(NetsimError):
    """Raised when nodes/links/ports are wired inconsistently."""


class AddressError(NetsimError):
    """Raised when host addressing is inconsistent (duplicate MAC/IP)."""


class RecordRetentionError(NetsimError):
    """Raised when a caller asks the tracer to retain records, which it
    no longer does (listeners receive them instead)."""
