"""Tunable parameters of the ARP-Path bridge.

Defaults follow the published implementations: a short *lock* timer
(just long enough for the ARP Reply round trip) and a long refreshable
*learnt* timer for confirmed path entries. The ablation experiment
(``repro.experiments.ablations``; README.md lists the scenarios) sweeps
the lock timeout, the repair buffer and the hello / static-role port
classification.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ArpPathConfig:
    """Configuration for :class:`repro.core.bridge.ArpPathBridge`."""

    #: Seconds a LOCKED entry (created by a discovery broadcast) lives.
    lock_timeout: float = 0.8
    #: Seconds a LEARNT entry (confirmed by unicast traffic) lives;
    #: refreshed by every frame that uses it.
    learnt_timeout: float = 120.0
    #: Seconds a broadcast-guard entry (non-ARP broadcast first-arrival
    #: filter, paper §2.1.3) lives.
    guard_timeout: float = 1.0

    #: Send neighbour-discovery hellos (classifies ports as
    #: bridge-facing vs host-facing).
    hello_enabled: bool = True
    hello_interval: float = 1.0
    #: Seconds after the last hello a port still counts as bridge-facing.
    hello_hold: float = 3.5

    #: Enable the Path Repair protocol (paper §2.1.4).
    repair_enabled: bool = True
    #: PathRequest retransmissions before a repair is abandoned.
    repair_retries: int = 3
    #: Seconds to wait for a PathReply before retrying.
    repair_retry_timeout: float = 0.25
    #: Frames buffered per destination while a repair is pending.
    repair_buffer_size: int = 32
    #: Answer PathRequests from any valid table entry for the target,
    #: not only when the target sits on a local host port. Needed when
    #: hellos are disabled (port roles unknown).
    repair_reply_from_cache: bool = False

    #: Enable the ARP-Proxy broadcast suppression (paper §2.2, citing
    #: EtherProxy).
    proxy_enabled: bool = False
    #: Seconds a proxied IP→MAC binding stays valid.
    proxy_timeout: float = 60.0

    #: Hop budget stamped on generated control frames.
    control_ttl: int = 64

    def __post_init__(self):
        if self.lock_timeout <= 0:
            raise ValueError("lock_timeout must be positive")
        if self.learnt_timeout <= 0:
            raise ValueError("learnt_timeout must be positive")
        if self.guard_timeout <= 0:
            raise ValueError("guard_timeout must be positive")
        if self.hello_interval <= 0:
            raise ValueError("hello_interval must be positive")
        if self.hello_hold < self.hello_interval:
            raise ValueError("hello_hold must cover at least one interval")
        if self.repair_retries < 0:
            raise ValueError("repair_retries must be non-negative")
        if self.repair_retry_timeout <= 0:
            raise ValueError("repair_retry_timeout must be positive")
        if self.repair_buffer_size < 0:
            raise ValueError("repair_buffer_size must be non-negative")
        if self.control_ttl <= 0:
            raise ValueError("control_ttl must be positive")


#: The library-wide default configuration.
DEFAULT_CONFIG = ArpPathConfig()
