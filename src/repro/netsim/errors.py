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


class InvariantError(NetsimError):
    """Raised by :mod:`repro.check` when a simulator invariant fails.

    Carries the invariant's name, the frame uid and link direction
    involved (None when the check is not about one frame or one
    direction), the simulated time, and the offending trace records:
    the checker's recent records for that uid, oldest first.
    """

    def __init__(self, invariant: str, message: str, uid=None,
                 direction=None, time: float = 0.0, records=()):
        self.invariant = invariant
        self.uid = uid
        self.direction = direction
        self.time = time
        self.records = tuple(records)
        super().__init__(f"{invariant}: {message} (uid={uid}, "
                         f"direction={direction}, t={time!r})")
